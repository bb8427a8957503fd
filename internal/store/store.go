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
//     in Corrupt()); the cell is simply recomputed and re-appended. So is
//     any other line Open cannot parse, one longer than maxLine included.
//   - One line format: Append writes only canonical lines (appendLine)
//     and refuses a record that has none, and Open reads only canonical
//     lines (scanRecord), so it serves only what Append would accept. A
//     line in any other form, or whose key is not the digest of its
//     identity, is skipped and counted in Corrupt().
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
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/canon"
)

// SchemaVersion is the record envelope schema; identities embed it so a
// future envelope change cannot alias old keys.
const SchemaVersion = 1

// logName is the single append-only log inside a store directory.
const logName = "records.ndjson"

// maxLine is the longest log line Open parses; a longer one is counted in
// Corrupt() and skipped like any other line it cannot parse.
const maxLine = 1 << 24

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
	key := hexKey(canonical)
	return string(key[:])
}

// hexKey is Key into a value the caller keeps on its stack, so that
// comparing or looking up a key allocates nothing.
func hexKey(canonical []byte) (key [2 * sha256.Size]byte) {
	sum := sha256.Sum256(canonical)
	hex.Encode(key[:], sum[:])
	return key
}

// keyMatches reports whether key is Key(canonical) without allocating:
// a reopen checks every record with it.
func keyMatches(key string, canonical []byte) bool {
	want := hexKey(canonical)
	return key == string(want[:])
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
//
// A record's envelope is read once, at load or append, into records;
// its result payload stays bytes, for the caller to decode or check.
// Every record there is keyed by the digest of its identity — load and
// Append refuse any other — so identity bytes name a record exactly as
// its key does, and the store indexes both. A hit (Lookup) is one probe
// of the identity index, with no digest; only a miss digests the
// identity, for the key the caller appends under. That is what makes a
// warm campaign run (hundreds of lookups, zero computes) two orders of
// magnitude faster than a cold one.
//
// The store owns the bytes it indexes: a loaded record's key, identity
// and result slice one copy of its line, an appended record's identity
// and result the line Append wrote. Nothing writes to them again, which
// is what lets the identity index's keys alias them instead of copying.
// Callers must treat the returned Identity/Result bytes as read-only.
type Store struct {
	mu sync.Mutex
	f  *os.File
	// records holds the first occurrence of each key, in append order
	// (stable Keys/provenance); byKey and byIdentity index into it.
	records    []Record
	byKey      map[string]int32
	byIdentity map[string]int32
	duplicates int
	corrupt    int
	// digest memoizes Digest; an Append that adds a key clears it.
	digest string
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
	s := &Store{f: f, byKey: make(map[string]int32), byIdentity: make(map[string]int32)}
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
// killed writer, a line longer than maxLine) and records whose key is
// not the digest of their identity (which Append refuses) are counted
// and skipped: the records they would have held are recomputed by the
// next campaign run.
func (s *Store) load(path string) error {
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	defer r.Close()
	br := bufio.NewReaderSize(r, 1<<16)
	var long []byte
	kinds := make(map[string]string)
	for {
		line, tooLong, err := readLine(br, &long)
		if err != nil {
			return fmt.Errorf("store: read log: %w", err)
		}
		if line == nil && !tooLong {
			return nil
		}
		if !tooLong && len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if tooLong {
			s.corrupt++
			continue
		}
		rec, ok := scanRecord(line, kinds)
		if !ok || !keyMatches(rec.Key, rec.Identity) {
			s.corrupt++
			continue
		}
		if _, ok := s.byKey[rec.Key]; ok {
			s.duplicates++
			continue
		}
		s.add(rec)
	}
}

// add indexes a record the store owns the bytes of, under its key and
// under its identity bytes, without copying either.
func (s *Store) add(rec Record) {
	i := int32(len(s.records))
	s.records = append(s.records, rec)
	s.byKey[rec.Key] = i
	s.byIdentity[unsafe.String(unsafe.SliceData(rec.Identity), len(rec.Identity))] = i
}

// The separators of a canonical record line, the one Append writes:
// {"key":"…","kind":"…","identity":…,"result":…}.
const (
	lineKey      = `{"key":"`
	lineKind     = `","kind":"`
	lineIdentity = `","identity":`
	lineResult   = `,"result":`
)

// scanRecord reads a canonical record line — the four members in that
// order, no whitespace, key and kind printable ASCII with nothing to
// unescape, identity and result canonical JSON (canon.Valid) — into a
// record whose key, identity and result slice one copy of the line, its
// kind interned in kinds. ok is false for any other line: the scanner
// accepts only lines that json.Unmarshal reads to the same record
// (FuzzScanRecord).
func scanRecord(line []byte, kinds map[string]string) (rec Record, ok bool) {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	rest, ok := bytes.CutPrefix(line, []byte(lineKey))
	if !ok {
		return rec, false
	}
	key, rest, ok := cutPlain(rest, lineKind)
	if !ok {
		return rec, false
	}
	kind, body, ok := cutPlain(rest, lineIdentity)
	if !ok {
		return rec, false
	}
	sc := canon.Scan(body)
	identity := sc.Skip()
	rest, ok = bytes.CutPrefix(body[len(identity):], []byte(lineResult))
	if identity == nil || !ok {
		return rec, false
	}
	sc = canon.Scan(rest)
	result := sc.Skip()
	if result == nil || string(rest[len(result):]) != "}" {
		return rec, false
	}
	if rec.Kind, ok = kinds[string(kind)]; !ok {
		rec.Kind = string(kind)
		kinds[rec.Kind] = rec.Kind
	}
	owned := bytes.Clone(line[len(lineKey):])
	id := len(owned) - len(body)
	res := id + len(identity) + len(lineResult)
	rec.Key = unsafe.String(unsafe.SliceData(owned), len(key))
	rec.Identity = owned[id : id+len(identity) : id+len(identity)]
	rec.Result = owned[res : res+len(result) : res+len(result)]
	return rec, true
}

// cutPlain cuts b around the first quote, which must start sep: the
// string before it is plain.
func cutPlain(b []byte, sep string) (before, after []byte, ok bool) {
	i := bytes.IndexByte(b, '"')
	if i < 0 || !bytes.HasPrefix(b[i:], []byte(sep)) || !plain(b[:i]) {
		return nil, nil, false
	}
	return b[:i], b[i+len(sep):], true
}

// plain reports whether s is printable ASCII with no quote or backslash:
// a string whose JSON encoding is its bytes between quotes.
func plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// readLine returns the next line of the log, newline included, valid
// until the next call; a nil line is the end of the log. A line that
// fits the reader's buffer is returned in place; a longer one is
// gathered in *long, unless it is longer than maxLine: then it is read to
// its end but not kept, and tooLong reports it.
func readLine(br *bufio.Reader, long *[]byte) (line []byte, tooLong bool, err error) {
	line, err = br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		buf := append((*long)[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = br.ReadSlice('\n')
			if tooLong = tooLong || len(buf)+len(line) > maxLine; !tooLong {
				buf = append(buf, line...)
			}
		}
		*long, line = buf, buf
	}
	switch {
	case errors.Is(err, io.EOF):
		if len(line) == 0 && !tooLong {
			return nil, false, nil
		}
	case err != nil:
		return nil, false, err
	}
	return line, tooLong, nil
}

// Get returns the record for key, if present. The record's raw
// Identity/Result bytes are the store's — read-only.
func (s *Store) Get(key string) (Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byKey[key]
	if !ok {
		return Record{}, false, nil
	}
	return s.records[i], true, nil
}

// Lookup is Get(Key(identity)) without the digest: a hit is one probe of
// the identity index and allocates nothing. A miss digests the identity
// and returns a record that holds only its key, the one string the
// caller needs to append the record it computes instead.
func (s *Store) Lookup(identity []byte) (Record, bool) {
	s.mu.Lock()
	i, ok := s.byIdentity[string(identity)]
	var rec Record
	if ok {
		rec = s.records[i]
	}
	s.mu.Unlock()
	if !ok {
		return Record{Key: Key(identity)}, false
	}
	return rec, true
}

// Append persists a record. It verifies the key is the digest of the
// identity bytes (a mismatched record would poison every future lookup),
// deduplicates against the in-process index, and writes one line with a
// single O_APPEND write. added is false when the key was already stored
// — the existing record wins and the new one is discarded, which is the
// append-only analogue of "never overwrite a prior run". The store keeps
// none of the caller's bytes: the record it indexes slices the line it
// wrote, so the caller may reuse its buffers as soon as Append returns.
// A record with no canonical line (appendLine) is refused with nothing
// written: an identity json.Marshal would rewrite (whitespace, a raw <,
// > or &) could never be served under the key that digests it, and a
// reopened store reads no other line.
func (s *Store) Append(rec Record) (added bool, err error) {
	if !keyMatches(rec.Key, rec.Identity) {
		return false, fmt.Errorf("store: record key %.12s… is not the digest of its identity (%.12s…)", rec.Key, Key(rec.Identity))
	}
	line, owned, err := recordLine(rec)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byKey[rec.Key]; ok {
		return false, nil
	}
	if _, err := s.f.Write(line); err != nil {
		return false, fmt.Errorf("store: append: %w", err)
	}
	s.add(owned)
	s.digest = ""
	return true, nil
}

// recordLine renders rec's canonical log line (appendLine), newline
// included, and the record the store indexes for it, which slices the
// line: one allocation. A record with a member that is not canonical has
// no such line, and is an error.
func recordLine(rec Record) (line []byte, owned Record, err error) {
	owned = rec
	n := len(rec.Identity)
	line, ok := appendLine(make([]byte, 0, lineEnvelope+len(rec.Key)+len(rec.Kind)+n+len(rec.Result)), rec)
	if !ok {
		return nil, owned, fmt.Errorf("store: record of kind %.40q is not canonical JSON (identity %.40q, result %.40q)", rec.Kind, rec.Identity, rec.Result)
	}
	end := len(line) - 1 // the closing brace
	res := end - len(rec.Result)
	id := res - len(lineResult) - n
	owned.Identity, owned.Result = line[id:id+n:id+n], line[res:end:end]
	return append(line, '\n'), owned, nil
}

// lineEnvelope is the length of a canonical line less its key, kind,
// identity and result: the four separators, the closing brace and the
// newline.
const lineEnvelope = len(lineKey) + len(lineKind) + len(lineIdentity) + len(lineResult) + len("}\n")

// appendLine appends rec's log line, less its newline, to dst when every
// member of it is canonical — key and kind plain, identity and result
// canon.Valid: then the bytes are exactly json.Marshal's, and scanRecord
// reads them back to rec (FuzzAppendLine). ok is false otherwise, and dst
// holds a part line.
func appendLine(dst []byte, rec Record) (_ []byte, ok bool) {
	if !plain(rec.Key) || !plain(rec.Kind) || !canon.Valid(rec.Identity) || !canon.Valid(rec.Result) {
		return dst, false
	}
	o := canon.Begin(dst)
	o.String("key", rec.Key)
	o.String("kind", rec.Kind)
	o.Raw("identity", rec.Identity)
	o.Raw("result", rec.Result)
	return o.End()
}

// Len returns the number of distinct keys stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Duplicates returns how many on-disk lines repeated an already-indexed
// key at Open (cross-process races; first line won).
func (s *Store) Duplicates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duplicates
}

// Corrupt returns how many lines Open skipped: unparseable ones (torn
// tails from killed writers) and records keyed for another identity.
func (s *Store) Corrupt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// Keys returns every stored key in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, len(s.records))
	for i, rec := range s.records {
		keys[i] = rec.Key
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Digest returns the digest of the store's key set: the SHA-256 of the
// sorted key list, one key per line. Two stores holding the same cells —
// regardless of append order, duplicates or torn tails — share a digest,
// which is what provenance headers pin artifacts to. It covers keys only,
// that is identities: two stores whose results for the same identities
// differ in any byte share it too. It is computed once per set of keys:
// any Append that adds one invalidates it.
func (s *Store) Digest() string {
	s.mu.Lock()
	digest := s.digest
	s.mu.Unlock()
	if digest != "" {
		return digest
	}
	keys := s.Keys()
	list := make([]byte, 0, len(keys)*(2*sha256.Size+1))
	for _, k := range keys {
		list = append(append(list, k...), '\n')
	}
	sum := sha256.Sum256(list)
	digest = hex.EncodeToString(sum[:])
	s.mu.Lock()
	if len(s.records) == len(keys) { // no key added since the snapshot
		s.digest = digest
	}
	s.mu.Unlock()
	return digest
}

// Close releases the log handle. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
