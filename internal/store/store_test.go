package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
)

type testIdentity struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

type testResult struct {
	Value float64 `json:"value"`
}

func mustRecord(t testing.TB, n int, v float64) Record {
	t.Helper()
	rec, err := NewRecord("test", testIdentity{Kind: "test", N: n}, testResult{Value: v})
	if err != nil {
		t.Fatalf("NewRecord: %v", err)
	}
	return rec
}

func TestKeyForDeterministic(t *testing.T) {
	k1, c1, err := KeyFor(testIdentity{Kind: "cell", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	k2, c2, err := KeyFor(testIdentity{Kind: "cell", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || string(c1) != string(c2) {
		t.Fatalf("identical identities diverged: %s vs %s", k1, k2)
	}
	k3, _, err := KeyFor(testIdentity{Kind: "cell", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatalf("distinct identities collided on %s", k1)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}
}

// handIdentity appends its own canonical bytes, and declines a negative N.
type handIdentity testIdentity

func (id handIdentity) AppendCanonical(dst []byte) ([]byte, bool) {
	if id.N < 0 {
		return append(dst, "half-written"...), false
	}
	return append(dst, fmt.Sprintf(`{"kind":%q,"n":%d}`, id.Kind, id.N)...), true
}

// TestKeyForHonoursCanonical: an identity that appends its own bytes is
// keyed on them — the same key and bytes as the reflection path when the
// appender keeps its promise — and one that declines falls through to
// encoding/json with nothing of the declined attempt left in the bytes.
func TestKeyForHonoursCanonical(t *testing.T) {
	for _, n := range []int{7, -7} {
		wantKey, wantBytes, err := KeyFor(testIdentity{Kind: "cell", N: n})
		if err != nil {
			t.Fatal(err)
		}
		gotKey, gotBytes, err := KeyFor(handIdentity{Kind: "cell", N: n})
		if err != nil {
			t.Fatal(err)
		}
		if gotKey != wantKey || string(gotBytes) != string(wantBytes) {
			t.Errorf("n=%d: KeyFor = %s over %s, reflection path %s over %s", n, gotKey, gotBytes, wantKey, wantBytes)
		}
		if gotKey != Key(gotBytes) {
			t.Errorf("n=%d: key %s is not Key of the returned bytes", n, gotKey)
		}
		appended, err := AppendIdentity([]byte("head"), handIdentity{Kind: "cell", N: n})
		if err != nil || string(appended) != "head"+string(wantBytes) {
			t.Errorf("n=%d: AppendIdentity = %s, %v", n, appended, err)
		}
	}
	if _, _, err := KeyFor(func() {}); err == nil {
		t.Error("KeyFor of a value with no JSON form did not fail")
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := mustRecord(t, 1, 3.5)
	added, err := s.Append(rec)
	if err != nil || !added {
		t.Fatalf("first append: added=%v err=%v", added, err)
	}
	got, ok, err := s.Get(rec.Key)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d, want 1", s.Len())
	}
}

func TestAppendRejectsMismatchedKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := mustRecord(t, 1, 1)
	rec.Key = "0000000000000000000000000000000000000000000000000000000000000000"
	if _, err := s.Append(rec); err == nil {
		t.Fatal("append accepted a record whose key is not the digest of its identity")
	}
}

// TestAppendRejectsNonCanonicalIdentity: an identity json.Marshal would
// rewrite is refused, since the line written would hold other bytes than
// the ones its key digests and a reopen would count it corrupt. Nothing
// is written and nothing indexed.
func TestAppendRejectsNonCanonicalIdentity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, identity := range []string{`{"a": 1}`, `{"a":"<"}`} {
		rec := Record{Key: Key([]byte(identity)), Kind: "test", Identity: []byte(identity), Result: []byte(`{}`)}
		if added, err := s.Append(rec); added || err == nil {
			t.Errorf("Append(identity %s): added=%v err=%v, want an error", identity, added, err)
		}
		if _, ok := s.Lookup([]byte(identity)); ok || s.Len() != 0 {
			t.Errorf("identity %s indexed after a refused Append (Len %d)", identity, s.Len())
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 0 || reopened.Corrupt() != 0 {
		t.Fatalf("reopen: %d records, %d corrupt, want 0 and 0", reopened.Len(), reopened.Corrupt())
	}
}

// TestRacingWritersAppendOnce is the satellite concurrency contract: many
// goroutines racing to append the same key leave exactly one record, with
// no data race (run under -race in CI).
func TestRacingWritersAppendOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	addedCount := 0
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			added, err := s.Append(mustRecord(t, 42, 6.25))
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if added {
				mu.Lock()
				addedCount++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if addedCount != 1 {
		t.Fatalf("%d racing writers reported added, want exactly 1", addedCount)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d records after race, want 1", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk log must also hold exactly one line.
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 1 || reopened.Duplicates() != 0 {
		t.Fatalf("reopened: Len=%d Duplicates=%d, want 1/0", reopened.Len(), reopened.Duplicates())
	}
}

// TestCrossProcessDuplicateFirstWins models two processes appending the
// same key (each through its own Store handle): both lines land, the
// first is served, and Duplicates reports the redundancy.
func TestCrossProcessDuplicateFirstWins(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	first := mustRecord(t, 5, 1.0)
	second := mustRecord(t, 5, 2.0) // same identity, divergent payload
	if second.Key != first.Key {
		t.Fatalf("test setup: identities differ (%s vs %s)", first.Key, second.Key)
	}
	if added, err := a.Append(first); err != nil || !added {
		t.Fatalf("writer A: added=%v err=%v", added, err)
	}
	if added, err := b.Append(second); err != nil || !added {
		// B's handle has no knowledge of A's write, so it appends too.
		t.Fatalf("writer B: added=%v err=%v", added, err)
	}
	a.Close()
	b.Close()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 || s.Duplicates() != 1 {
		t.Fatalf("Len=%d Duplicates=%d, want 1/1", s.Len(), s.Duplicates())
	}
	got, ok, err := s.Get(first.Key)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	var res testResult
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Value != 1.0 {
		t.Fatalf("first-wins violated: served value %g, want the first writer's 1.0", res.Value)
	}
}

// TestTornTailSkipped kills a writer mid-line: Open must skip the torn
// tail, count it, and keep appending cleanly after it.
func TestTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(mustRecord(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a kill mid-append: a truncated JSON fragment with no newline.
	log := filepath.Join(dir, logName)
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"deadbeef","kind":"test","ide`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 || s2.Corrupt() != 1 {
		t.Fatalf("Len=%d Corrupt=%d, want 1/1", s2.Len(), s2.Corrupt())
	}
	// The torn record's cell is recomputed and appended after the tail; the
	// fresh line must parse on the next open. (Appending after a torn tail
	// without a separating newline would corrupt the new record too, so
	// Open-after-crash rewrites nothing but the test asserts recovery works
	// end to end: append, close, reopen, read back.)
	rec := mustRecord(t, 2, 2)
	if added, err := s2.Append(rec); err != nil || !added {
		t.Fatalf("append after torn tail: added=%v err=%v", added, err)
	}
	s2.Close()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok, _ := s3.Get(rec.Key); !ok {
		t.Fatal("record appended after a torn tail was lost on reopen")
	}
}

// TestLoadRejectsMismatchedKey: Open serves only what Append would accept.
// A line keyed for one identity but holding another is skipped and counted,
// and checking a key allocates nothing.
func TestLoadRejectsMismatchedKey(t *testing.T) {
	dir := t.TempDir()
	line := fmt.Sprintf(`{"key":%q,"kind":"test","identity":{"n":2},"result":{}}`+"\n", Key([]byte(`{"n":1}`)))
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok, _ := s.Get(Key([]byte(`{"n":1}`))); ok || s.Len() != 0 || s.Corrupt() != 1 {
		t.Fatalf("served a record keyed for another identity: ok=%v Len=%d Corrupt=%d, want false/0/1", ok, s.Len(), s.Corrupt())
	}
	for _, identity := range []string{`{"n":1}`, `{"n":2}`} {
		if got, ok := s.Lookup([]byte(identity)); ok {
			t.Fatalf("Lookup(%s) served the mis-keyed record %+v", identity, got)
		}
	}
	rec := mustRecord(t, 1, 1)
	if n := testing.AllocsPerRun(100, func() { keyMatches(rec.Key, rec.Identity) }); n != 0 {
		t.Errorf("checking a key allocated %v times", n)
	}
}

// TestOneLineFormat: Open reads only the line Append writes. A line
// keyed by the digest of an identity that is not canonical JSON is
// skipped and counted, though encoding/json reads it; and Append refuses
// a record with a member that is not canonical rather than write a
// rewritten copy of it, so nothing is written or indexed.
func TestOneLineFormat(t *testing.T) {
	dir := t.TempDir()
	identity := `{"a": 1}`
	line := fmt.Sprintf(`{"key":%q,"kind":"test","identity":%s,"result":{}}`+"\n", Key([]byte(identity)), identity)
	if err := json.Unmarshal([]byte(line), new(Record)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup([]byte(identity)); ok || s.Len() != 0 || s.Corrupt() != 1 {
		t.Fatalf("served a line in another form: hit %v, Len %d, Corrupt %d, want false/0/1", ok, s.Len(), s.Corrupt())
	}
	spaced := mustRecord(t, 1, 1)
	spaced.Result = []byte(`{ }`)
	accented := mustRecord(t, 2, 1)
	accented.Kind = "tést"
	for _, rec := range []Record{spaced, accented} {
		if added, err := s.Append(rec); added || err == nil {
			t.Errorf("Append(kind %q, result %s): added=%v err=%v, want an error", rec.Kind, rec.Result, added, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, logName)); err != nil || string(got) != line {
		t.Fatalf("log after refused appends = %q (err %v), want it unchanged", got, err)
	}
}

// TestTruncatedAtEveryOffset cuts a store at every byte: Open must keep
// exactly the complete lines before the cut, count a cut mid-line as one
// corrupt line, and a record appended afterwards must survive the next open.
func TestTruncatedAtEveryOffset(t *testing.T) {
	full := t.TempDir()
	s, err := Open(full)
	if err != nil {
		t.Fatal(err)
	}
	digests := []string{s.Digest()} // digests[i]: the store of the first i records
	for n := 1; n <= 3; n++ {
		if _, err := s.Append(mustRecord(t, n, float64(n))); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, s.Digest())
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(full, logName))
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustRecord(t, 100, 100)
	for k := 0; k <= len(data); k++ {
		complete, midLine, start := 0, false, 0
		for i, b := range data {
			if b != '\n' {
				continue
			}
			if i <= k { // the line's content, without its newline, is all before the cut
				complete++
			} else if start < k {
				midLine = true
			}
			start = i + 1
		}
		wantCorrupt := 0
		if midLine {
			wantCorrupt = 1
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if s.Len() != complete || s.Digest() != digests[complete] || s.Corrupt() != wantCorrupt {
			t.Fatalf("k=%d: Len=%d Corrupt=%d digest %.12s…, want %d/%d %.12s…",
				k, s.Len(), s.Corrupt(), s.Digest(), complete, wantCorrupt, digests[complete])
		}
		if added, err := s.Append(fresh); err != nil || !added {
			t.Fatalf("k=%d: append after reopen: added=%v err=%v", k, added, err)
		}
		s.Close()
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if _, ok, _ := s.Get(fresh.Key); !ok || s.Len() != complete+1 || s.Corrupt() != wantCorrupt {
			t.Fatalf("k=%d: after append and reopen: ok=%v Len=%d Corrupt=%d, want true/%d/%d",
				k, ok, s.Len(), s.Corrupt(), complete+1, wantCorrupt)
		}
		s.Close()
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	recs := []Record{mustRecord(t, 1, 1), mustRecord(t, 2, 2), mustRecord(t, 3, 3)}

	build := func(order []int) string {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, i := range order {
			if _, err := s.Append(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return s.Digest()
	}
	if d1, d2 := build([]int{0, 1, 2}), build([]int{2, 0, 1}); d1 != d2 {
		t.Fatalf("digest depends on append order: %s vs %s", d1, d2)
	}
	if d1, d3 := build([]int{0, 1, 2}), build([]int{0, 1}); d1 == d3 {
		t.Fatal("digest ignores membership")
	}
}

// TestDigestFollowsAppends: Digest is remembered between calls, so an
// Append that adds a key must change it, one that adds none must not,
// and a reopened store must agree with the one that wrote it. It is the
// SHA-256 of the sorted keys, one per line.
func TestDigestFollowsAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	prev := s.Digest()
	for i := 0; i < 3; i++ {
		rec := mustRecord(t, i, float64(i))
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, rec.Key)
		d := s.Digest()
		if d == prev {
			t.Fatalf("digest unchanged by the Append of record %d", i)
		}
		if again, err := s.Append(rec); err != nil || again || s.Digest() != d {
			t.Fatalf("a repeated Append (added=%v err=%v) moved the digest", again, err)
		}
		prev = d
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n") + "\n"))
	if want := hex.EncodeToString(sum[:]); prev != want {
		t.Fatalf("digest %s, want the SHA-256 of the sorted key lines %s", prev, want)
	}
	s.Close()
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Digest(); got != prev {
		t.Fatalf("reopened store digests to %s, the store that wrote it to %s", got, prev)
	}
}

// TestLookupIsGetOfTheKey: a lookup by identity bytes finds exactly what
// Get finds under their key, and a miss hands back that key.
func TestLookupIsGetOfTheKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := mustRecord(t, 1, 1)
	if _, err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Lookup(rec.Identity); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("Lookup = %+v (found %v), want %+v", got, ok, rec)
	}
	missing := mustRecord(t, 2, 2)
	if got, ok := s.Lookup(missing.Identity); ok || !reflect.DeepEqual(got, Record{Key: missing.Key}) {
		t.Fatalf("Lookup of a missing identity = %+v (found %v), want only its key %s", got, ok, missing.Key)
	}
	if n := testing.AllocsPerRun(100, func() { s.Lookup(rec.Identity) }); n != 0 {
		t.Fatalf("a Lookup hit allocates %.0f times, want 0", n)
	}
}

// TestConcurrentLookupAppendDigest runs what a campaign's grid workers
// share — hits, appends and the digest memo — side by side, for -race.
func TestConcurrentLookupAppendDigest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 32
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = mustRecord(t, i, float64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if _, err := s.Append(recs[i]); err != nil {
					t.Error(err)
				}
				for _, r := range recs[:i+1] {
					s.Lookup(r.Identity)
				}
				s.Digest()
			}
		}(w)
	}
	wg.Wait()
	want, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	for _, r := range recs {
		if _, err := want.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Digest() != want.Digest() {
		t.Fatalf("digest after concurrent appends %s, a serial store of the same records %s", s.Digest(), want.Digest())
	}
}

// TestOverLongLineSkipped: a line longer than Open reads is one corrupt
// line, not a store that cannot be opened; the records around it load,
// the last one a line longer than the read buffer itself.
func TestOverLongLineSkipped(t *testing.T) {
	dir := t.TempDir()
	first := mustRecord(t, 1, 1)
	last, err := NewRecord("test", testIdentity{Kind: "test", N: 2}, strings.Repeat("y", 200<<10))
	if err != nil {
		t.Fatal(err)
	}
	line := func(rec Record) []byte {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	log := append(line(first), bytes.Repeat([]byte("x"), 17<<20)...)
	log = append(append(log, '\n'), line(last)...)
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a 17 MiB line: %v", err)
	}
	defer s.Close()
	if s.Len() != 2 || s.Corrupt() != 1 {
		t.Fatalf("Len=%d Corrupt=%d, want 2/1", s.Len(), s.Corrupt())
	}
	for _, rec := range []Record{first, last} {
		if got, ok, _ := s.Get(rec.Key); !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %.12s… around the long line not served (found %v)", rec.Key, ok)
		}
	}
}

// TestLogThatIsADirectory: a store whose log is a directory does not
// open, and says so instead of panicking.
func TestLogThatIsADirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, logName), 0o755); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir); err == nil {
		s.Close()
		t.Fatal("Open succeeded over a log that is a directory")
	}
}

// TestAppendOnly asserts the core invariant directly: appends never
// shrink the log, and prior bytes are never rewritten.
func TestAppendOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	log := filepath.Join(dir, logName)

	var prev []byte
	for i := 0; i < 10; i++ {
		if _, err := s.Append(mustRecord(t, i, float64(i))); err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		if len(cur) < len(prev) {
			t.Fatalf("log shrank from %d to %d bytes", len(prev), len(cur))
		}
		if string(cur[:len(prev)]) != string(prev) {
			t.Fatalf("append %d rewrote earlier bytes", i)
		}
		prev = cur
	}
}

func TestOpenMissingDirCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open should create missing directories: %v", err)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, logName)); err != nil {
		t.Fatalf("log file missing: %v", err)
	}
}

func TestManyRecordsReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if added, err := s.Append(mustRecord(t, i, float64(i)*1.5)); err != nil || !added {
			t.Fatalf("append %d: added=%v err=%v", i, added, err)
		}
	}
	digest := s.Digest()
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("reloaded %d records, want %d", s2.Len(), n)
	}
	if s2.Digest() != digest {
		t.Fatalf("digest changed across reload: %s vs %s", s2.Digest(), digest)
	}
	for i := 0; i < n; i++ {
		key, _, err := KeyFor(testIdentity{Kind: "test", N: i})
		if err != nil {
			t.Fatal(err)
		}
		rec, ok, err := s2.Get(key)
		if err != nil || !ok {
			t.Fatalf("record %d missing after reload (ok=%v err=%v)", i, ok, err)
		}
		var res testResult
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			t.Fatal(err)
		}
		if want := float64(i) * 1.5; res.Value != want {
			t.Fatalf("record %d: value %g, want %g", i, res.Value, want)
		}
	}
}

func TestConcurrentDistinctWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			added, err := s.Append(mustRecord(t, i, float64(i)))
			if err != nil {
				errs <- err
				return
			}
			if !added {
				errs <- fmt.Errorf("distinct record %d reported duplicate", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Len() != n {
		t.Fatalf("Len=%d, want %d", s.Len(), n)
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// runtime makes sync.Pool drop entries: json.Valid's pooled scanner then
// allocates by design and allocation budgets do not apply.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestOpenAllocationBudget bounds a reopen of a canonical log, what every
// warm campaign pays once: per record, one copy of its line, which its
// key, identity and result slice, and a share of the index's growth. The
// kind name is interned, and the scanner reads the envelope without
// reflection.
func TestOpenAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := s.Append(mustRecord(t, i, float64(i)/7)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	perRecord := testing.AllocsPerRun(5, func() {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != n || s.Corrupt() != 0 {
			t.Fatalf("reopen: %d records, %d corrupt, want %d and 0", s.Len(), s.Corrupt(), n)
		}
		s.Close()
	}) / n
	t.Logf("Open of %d records: %.2f allocations per record", n, perRecord)
	if perRecord > 1.5 {
		t.Errorf("Open costs %.2f allocations per record, budget 1.5", perRecord)
	}
}

// TestAppendAllocationBudget bounds an append of a canonical record: its
// line, built by hand, which the indexed record slices, and a share of
// the index's growth.
func TestAppendAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 500
	recs := make([]Record, 2*n) // AllocsPerRun's warm-up appends the first half
	for i := range recs {
		recs[i] = mustRecord(t, i, float64(i)/7)
	}
	next := recs
	perRecord := testing.AllocsPerRun(1, func() {
		for _, rec := range next[:n] {
			if added, err := s.Append(rec); !added || err != nil {
				t.Fatalf("append: added=%v err=%v", added, err)
			}
		}
		next = next[n:]
	}) / n
	t.Logf("Append of %d records: %.2f allocations per record", n, perRecord)
	if perRecord > 1.1 {
		t.Errorf("Append costs %.2f allocations per record, budget 1.1", perRecord)
	}
}

// TestAppendOwnsItsBytes: the store keeps none of the caller's bytes. A
// caller that overwrites its buffer after Append — as core.Run recycles
// its identity buffer — leaves the stored record, its lookup by identity
// and its line on disk as they were.
func TestAppendOwnsItsBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, result := range []string{`{"value":1}`, `{"s":["a",-0.5e7,null,true]}`} {
		identity := fmt.Sprintf(`{"result":%s}`, result)
		buf := []byte(identity + result)
		rec := Record{Key: Key([]byte(identity)), Kind: "test", Identity: buf[:len(identity)], Result: buf[len(identity):]}
		if added, err := s.Append(rec); !added || err != nil {
			t.Fatalf("append: added=%v err=%v", added, err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		want := Record{Key: rec.Key, Kind: "test", Identity: []byte(identity), Result: []byte(result)}
		if got, ok, _ := s.Get(want.Key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get after the caller's buffer is overwritten = %+v (found %v), want %+v", got, ok, want)
		}
		if got, ok := s.Lookup(want.Identity); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup after the caller's buffer is overwritten = %+v (found %v), want %+v", got, ok, want)
		}
		if got, ok := s.Lookup(buf[:len(identity)]); ok {
			t.Fatalf("Lookup of the overwritten bytes %q served %+v", buf[:len(identity)], got)
		}
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 2 || reopened.Corrupt() != 0 {
		t.Fatalf("reopen: %d records, %d corrupt, want 2 and 0", reopened.Len(), reopened.Corrupt())
	}
}

// FuzzScanRecord holds the record-line scanner to encoding/json, its
// oracle: a line the scanner accepts is one json.Unmarshal accepts and
// decodes to the same record, byte for byte; and the line json.Marshal
// writes for any record whose members are canonical (appendLine's
// condition) is one the scanner accepts.
func FuzzScanRecord(f *testing.F) {
	line, err := json.Marshal(mustRecord(f, 1, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Add(append(line, '\n'))
	f.Add(append(line, "\r\n"...))
	f.Add(line[:len(line)-1])
	f.Add(bytes.Replace(line, []byte(`":`), []byte(`": `), 1))
	f.Add(bytes.Replace(line, []byte(`"key"`), []byte(`"Key"`), 1))
	f.Add(bytes.Replace(line, []byte(`"test"`), []byte(`"t\u0065st"`), 1))
	f.Add(bytes.Replace(line, []byte(`"test"`), []byte("\"t\xffst\""), 1))
	f.Add([]byte(`{"key":"k","kind":"x","identity":{"a":{},"result":{}},"result":{"b":1}}`))
	f.Add([]byte(`{"key":"k","kind":"x","identity":{"a":1},"result":{"b":{},"result":{}}}`))
	f.Add([]byte(`{"key":"k","kind":"x","identity":{"a":1},"result":{"b":1},"result":{"c":2}}`))
	f.Add([]byte(`{"key":"k","kind":"x","identity":null,"result":1}`))
	f.Add([]byte(`{"key":"k","kind":"x","identity":{ },"result":{"s":"}"}}`))
	f.Add([]byte(`{"key":"k","kind":"x","identity": {"a":1},"result":{"b":1}}`))
	f.Add([]byte(`{"key":"k","kind":"x","identity":{"a":1}` + "\t" + `,"result":{"b":1}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Record
		jsonErr := json.Unmarshal(line, &want)
		same := func(got Record) bool {
			return got.Key == want.Key && got.Kind == want.Kind &&
				bytes.Equal(got.Identity, want.Identity) && bytes.Equal(got.Result, want.Result)
		}
		if got, ok := scanRecord(line, make(map[string]string)); ok && (jsonErr != nil || !same(got)) {
			t.Fatalf("scanner reads %q to %+v; encoding/json to %+v (err %v)", line, got, want, jsonErr)
		}
		if _, canonical := appendLine(nil, want); jsonErr == nil && canonical {
			marshaled, err := json.Marshal(want)
			if got, ok := scanRecord(marshaled, make(map[string]string)); err != nil || !ok || !same(got) {
				t.Fatalf("scanner reads json.Marshal's line %q of canonical members to %+v (ok %v, err %v)", marshaled, got, ok, err)
			}
		}
	})
}

// FuzzAppendLine holds the hand-built log line to json.Marshal, its
// oracle: whenever appendLine writes a line, it is the record's
// json.Marshal byte for byte, the scanner reads it back to the record,
// and the record Append indexes slices the identity and result out of it
// unchanged. When it writes none, recordLine refuses the record.
func FuzzAppendLine(f *testing.F) {
	rec := mustRecord(f, 1, 1)
	f.Add(rec.Key, rec.Kind, []byte(rec.Identity), []byte(rec.Result))
	f.Add("k", "", []byte(`{}`), []byte(`[1,"a",null,true,{"b":-0.5e7}]`))
	f.Add("a<b", "test", []byte(`{}`), []byte(`{}`))
	f.Add(`k"`, "test", []byte(`{}`), []byte(`{}`))
	f.Add("k", "tést", []byte(`{}`), []byte(`{}`))
	f.Add("k", "test", []byte(`{"a": 1}`), []byte(`{}`))
	f.Add("k", "test", []byte(`{"a":"<"}`), []byte(`{}`))
	f.Add("k", "test", []byte(`{}`), []byte(`{"s":"a\u003cb"}`))
	f.Add("k", "test", []byte{}, []byte(`{}`))
	f.Add("k", "test", []byte(nil), []byte(`1e999`))
	f.Fuzz(func(t *testing.T, key, kind string, identity, result []byte) {
		rec := Record{Key: key, Kind: kind, Identity: identity, Result: result}
		got, ok := appendLine(nil, rec)
		if !ok {
			if line, _, err := recordLine(rec); err == nil {
				t.Fatalf("recordLine(%+v) wrote %q with no canonical line", rec, line)
			}
			return
		}
		want, err := json.Marshal(rec)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendLine(%+v) = %q; json.Marshal writes %q (err %v)", rec, got, want, err)
		}
		if back, ok := scanRecord(got, make(map[string]string)); !ok || back.Key != key || back.Kind != kind ||
			!bytes.Equal(back.Identity, identity) || !bytes.Equal(back.Result, result) {
			t.Fatalf("scanRecord(%q) = %+v (ok %v), want %+v", got, back, ok, rec)
		}
		line, owned, err := recordLine(rec)
		if err != nil || string(line) != string(want)+"\n" || !bytes.Equal(owned.Identity, identity) || !bytes.Equal(owned.Result, result) {
			t.Fatalf("recordLine(%+v) = %q indexing %+v (err %v)", rec, line, owned, err)
		}
	})
}

// FuzzOpenStore opens a store over arbitrary log bytes. Open must not
// panic, must serve only records keyed by their identity's digest, and a
// record appended after it must survive a reopen with everything Open
// served.
func FuzzOpenStore(f *testing.F) {
	line, err := json.Marshal(mustRecord(f, 1, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(append(line, '\n'))
	f.Add(line)
	f.Add(append(append(line, '\n'), line[:len(line)/2]...))
	f.Add(append(append([]byte("\r\n  \n{not json\n"), line...), "\r\n"...))
	f.Add([]byte(`{"key":"00","kind":"x","identity":{},"result":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		keys := s.Keys()
		for _, key := range keys {
			got, ok, _ := s.Get(key)
			if !ok || got.Key != key || Key(got.Identity) != key {
				t.Fatalf("Open serves key %s for identity %q (found %v)", key, got.Identity, ok)
			}
			if byIdentity, ok := s.Lookup(got.Identity); !ok || !reflect.DeepEqual(byIdentity, got) {
				t.Fatalf("Lookup(%q) = %+v (found %v), Get(Key(identity)) = %+v", got.Identity, byIdentity, ok, got)
			}
		}
		rec := mustRecord(t, len(data), 2)
		added, err := s.Append(rec)
		if err != nil {
			t.Fatalf("Append after Open: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir); err != nil {
			t.Fatalf("reopen after Append: %v", err)
		}
		defer s.Close()
		for _, key := range keys {
			if _, ok, _ := s.Get(key); !ok {
				t.Fatalf("key %s served before the Append is lost on reopen", key)
			}
		}
		if got, ok, _ := s.Get(rec.Key); !ok || (added && !reflect.DeepEqual(got, rec)) {
			t.Fatalf("appended record lost on reopen: got %+v (found %v), want %+v", got, ok, rec)
		}
	})
}
