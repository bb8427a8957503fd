// Package store is the append-only, content-addressed experiment store:
// the persistent substrate under every sweep, campaign and advisor
// process, so that no experiment cell is ever computed twice.
//
// Each result is one JSON record on one line of records.ndjson, keyed by
// the SHA-256 digest of the canonical JSON encoding of its identity —
// the fully normalized request (perfmodel.Params.Normalized plus the
// cell coordinates, engine, fault schedule and checkpoint plan) extended
// with the version stamps of every versioned model input. Two spellings
// of the same request collapse to one key; any code or coefficient
// version bump yields a fresh key, so a store can never serve a stale
// result across model changes — the old records simply stop matching.
//
// Invariants:
//
//   - Append-only: a record, once written, is never rewritten or
//     truncated. Regeneration under new code appends under a new key.
//     The only file operations are O_APPEND writes of whole lines.
//   - First-wins reads: if concurrent *processes* append the same key
//     (in-process racers are deduplicated under the store mutex), the
//     earliest line is the one served — and since records are
//     deterministic functions of their identity, the racers' lines are
//     byte-identical anyway. Duplicates() exposes the redundancy.
//   - Torn tails are tolerated: a process killed mid-append leaves at
//     most one unparseable trailing line, which Open skips (and counts
//     in Corrupt()); the cell is simply recomputed and re-appended.
//
// The convention follows the asterisk repo's investigation pipeline:
// results are append-only JSON — never overwrite a prior run.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// SchemaVersion is the record envelope schema; identities embed it so a
// future envelope change cannot alias old keys.
const SchemaVersion = 1

// logName is the single append-only log inside a store directory.
const logName = "records.ndjson"

// Record is one stored result. Identity holds the canonical JSON bytes
// the Key digests; Result the engine's output. The store does not
// interpret either — typed identity/result structs live with the engines
// that own them (internal/core).
type Record struct {
	Key      string          `json:"key"`
	Kind     string          `json:"kind"`
	Identity json.RawMessage `json:"identity"`
	Result   json.RawMessage `json:"result"`
}

// Canonical is implemented by identity and payload types that append
// their own canonical JSON instead of going through reflection (see
// internal/canon). The bytes must be exactly what json.Marshal emits for
// the value; ok false means the type declines this value — a string that
// needs escaping, a float JSON cannot carry — and encoding/json decides.
type Canonical interface {
	AppendCanonical(dst []byte) (_ []byte, ok bool)
}

// AppendIdentity appends the canonical JSON encoding of an identity value
// to dst: the value's own AppendCanonical where it has one and does not
// decline, json.Marshal otherwise (encoding/json is deterministic: struct
// fields in declaration order, map keys sorted). A nil dst is sized for a
// cell identity.
func AppendIdentity(dst []byte, identity any) ([]byte, error) {
	if c, ok := identity.(Canonical); ok {
		if dst == nil {
			dst = make([]byte, 0, 1024)
		}
		if b, ok := c.AppendCanonical(dst); ok {
			return b, nil
		}
	}
	b, err := json.Marshal(identity)
	if err != nil {
		return dst, fmt.Errorf("store: marshal identity: %w", err)
	}
	if dst == nil {
		return b, nil
	}
	return append(dst, b...), nil
}

// Key returns the content address of canonical identity bytes: their
// SHA-256 as lower-case hex.
func Key(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// KeyFor returns the content address of an identity value: the Key of its
// canonical JSON encoding (AppendIdentity). The returned bytes are the
// exact encoding that was digested; records must embed them unmodified.
func KeyFor(identity any) (key string, canonical []byte, err error) {
	if canonical, err = AppendIdentity(nil, identity); err != nil {
		return "", nil, err
	}
	return Key(canonical), canonical, nil
}

// NewRecord assembles a record: it canonicalizes the identity, digests
// it into the key, and marshals the result payload.
func NewRecord(kind string, identity any, result any) (Record, error) {
	key, idBytes, err := KeyFor(identity)
	if err != nil {
		return Record{}, err
	}
	res, err := json.Marshal(result)
	if err != nil {
		return Record{}, fmt.Errorf("store: marshal result: %w", err)
	}
	return Record{Key: key, Kind: kind, Identity: idBytes, Result: res}, nil
}

// Store is an open experiment store. All methods are safe for concurrent
// use; concurrent appends from *other processes* on the same directory
// are also safe (O_APPEND line writes) and deduplicated first-wins at
// the next Open.
type Store struct {
	mu  sync.Mutex
	dir string
	f   *os.File
	// index maps key → parsed record (first occurrence wins). Records are
	// decoded once — at load or append — so lookups are a map read; this
	// is what makes a warm campaign run (hundreds of Gets, zero computes)
	// two orders of magnitude faster than a cold one. Callers must treat
	// the returned Identity/Result bytes as read-only.
	index      map[string]Record
	order      []string // keys in append order (stable Keys/provenance)
	duplicates int
	corrupt    int
	appended   int
}

// Open opens (creating if needed) the store rooted at dir and indexes
// every parseable record line.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s := &Store{dir: dir, f: f, index: make(map[string]Record)}
	if err := s.load(path); err != nil {
		f.Close()
		return nil, err
	}
	// A writer killed mid-append leaves the log without a trailing newline;
	// sealing it with one (an append, never a rewrite) keeps the torn
	// fragment isolated from the records written after it.
	if err := s.sealTornTail(path); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// sealTornTail appends a newline when the log is non-empty and does not
// end with one, so subsequent appends start on a fresh line.
func (s *Store) sealTornTail(path string) error {
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: reopen log: %w", err)
	}
	defer r.Close()
	st, err := r.Stat()
	if err != nil {
		return fmt.Errorf("store: stat log: %w", err)
	}
	if st.Size() == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := r.ReadAt(last, st.Size()-1); err != nil {
		return fmt.Errorf("store: read log tail: %w", err)
	}
	if last[0] != '\n' {
		if _, err := s.f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("store: seal torn tail: %w", err)
		}
	}
	return nil
}

// load indexes the existing log. Unparseable lines (a torn tail from a
// killed writer) are counted and skipped: the records they would have
// held are recomputed by the next campaign run.
func (s *Store) load(path string) error {
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			s.corrupt++
			continue
		}
		if _, ok := s.index[rec.Key]; ok {
			s.duplicates++
			continue
		}
		s.index[rec.Key] = rec
		s.order = append(s.order, rec.Key)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: scan log: %w", err)
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Has reports whether a record for key is present.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Get returns the record for key, if present. The record's raw
// Identity/Result bytes are shared with the index — read-only.
func (s *Store) Get(key string) (Record, bool, error) {
	s.mu.Lock()
	rec, ok := s.index[key]
	s.mu.Unlock()
	return rec, ok, nil
}

// Append persists a record. It verifies the key is the digest of the
// identity bytes (a mismatched record would poison every future lookup),
// deduplicates against the in-process index, and writes one line with a
// single O_APPEND write. added is false when the key was already stored
// — the existing record wins and the new one is discarded, which is the
// append-only analogue of "never overwrite a prior run".
func (s *Store) Append(rec Record) (added bool, err error) {
	if want := Key(rec.Identity); rec.Key != want {
		return false, fmt.Errorf("store: record key %.12s… is not the digest of its identity (%.12s…)", rec.Key, want)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return false, fmt.Errorf("store: marshal record: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[rec.Key]; ok {
		return false, nil
	}
	if _, err := s.f.Write(line); err != nil {
		return false, fmt.Errorf("store: append: %w", err)
	}
	s.index[rec.Key] = rec
	s.order = append(s.order, rec.Key)
	s.appended++
	return true, nil
}

// Len returns the number of distinct keys stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Appended returns how many records this handle has written.
func (s *Store) Appended() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Duplicates returns how many on-disk lines repeated an already-indexed
// key at Open (cross-process races; first line won).
func (s *Store) Duplicates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duplicates
}

// Corrupt returns how many unparseable lines Open skipped (torn tails
// from killed writers).
func (s *Store) Corrupt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// Keys returns every stored key in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, len(s.order))
	copy(keys, s.order)
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Digest returns the content digest of the whole store: the SHA-256 of
// the sorted key list. Two stores holding the same cells — regardless of
// append order, duplicates or torn tails — share a digest, which is what
// provenance headers pin artifacts to.
func (s *Store) Digest() string {
	h := sha256.New()
	for _, k := range s.Keys() {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Close releases the log handle. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
