package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

func mustRecord(t *testing.T, n int, v float64) Record {
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
	if s.Len() != 1 || s.Appended() != 1 {
		t.Fatalf("Len=%d Appended=%d, want 1/1", s.Len(), s.Appended())
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
	if !s3.Has(rec.Key) {
		t.Fatal("record appended after a torn tail was lost on reopen")
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
