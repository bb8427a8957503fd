package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func pinnedClock() func() time.Time {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return t0 }
}

func TestLoggerLogfmtGolden(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LoggerOptions{Level: LevelDebug, Now: pinnedClock()})
	l.Info("request done", "endpoint", "recommend", "status", 200, "dur_s", 0.0025, "note", "two words")
	want := `ts=2026-08-08T12:00:00Z level=info msg="request done" endpoint=recommend status=200 dur_s=0.0025 note="two words"` + "\n"
	if buf.String() != want {
		t.Fatalf("logfmt line:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestLoggerJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LoggerOptions{Level: LevelInfo, Format: LogJSON, Now: pinnedClock()})
	l.With("endpoint", "predict").Error("compute failed", "err", errors.New("boom"), "ok", false)
	want := `{"ts":"2026-08-08T12:00:00Z","level":"error","msg":"compute failed","endpoint":"predict","err":"boom","ok":false}` + "\n"
	if buf.String() != want {
		t.Fatalf("json line:\n got %q\nwant %q", buf.String(), want)
	}
	// And it is real JSON.
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("line not valid JSON: %v", err)
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LoggerOptions{Level: LevelWarn, Now: pinnedClock()})
	l.Info("hidden")
	l.Warn("shown")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("lines = %d, want 1 (only warn):\n%s", n, buf.String())
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelInfo) {
		t.Fatal("Enabled gate wrong")
	}
}

func TestLoggerSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LoggerOptions{Level: LevelDebug, Now: pinnedClock()}).Sampled(10)
	for i := 0; i < 100; i++ {
		l.Info("tick", "i", i)
	}
	if n := strings.Count(buf.String(), "\n"); n != 10 {
		t.Fatalf("sampled lines = %d, want 10", n)
	}
	// The very first record passes (quiet paths still surface).
	if !strings.Contains(strings.Split(buf.String(), "\n")[0], "i=0") {
		t.Fatalf("first record sampled away:\n%s", buf.String())
	}
	// Warn/Error bypass sampling entirely.
	buf.Reset()
	for i := 0; i < 5; i++ {
		l.Warn("bad", "i", i)
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 {
		t.Fatalf("warn lines = %d, want 5 (never sampled)", n)
	}
}

func TestLoggerDanglingKey(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LoggerOptions{Now: pinnedClock()})
	l.Info("oops", "key")
	if !strings.Contains(buf.String(), `key=(MISSING)`) {
		t.Fatalf("dangling key not flagged: %s", buf.String())
	}
}

func TestLoggerConcurrentLinesIntact(t *testing.T) {
	var buf lockedBuffer
	l := NewLogger(&buf, LoggerOptions{Level: LevelDebug})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := l.With("worker", w)
			for i := 0; i < 50; i++ {
				child.Info("tick", "i", i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("lines = %d, want 400", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "ts=") || !strings.Contains(ln, " worker=") {
			t.Fatalf("interleaved/torn line: %q", ln)
		}
	}
}

func TestNilLoggerInert(t *testing.T) {
	var l *Logger
	l.Info("x")
	l.With("k", "v").Sampled(10).Error("y")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for _, s := range []string{"debug", "info", "warn", "error"} {
		lv, err := ParseLevel(s)
		if err != nil || lv.String() != s {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, lv, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted junk")
	}
	if f, err := ParseLogFormat("json"); err != nil || f != LogJSON {
		t.Fatalf("ParseLogFormat(json) = %v, %v", f, err)
	}
	if _, err := ParseLogFormat("xml"); err == nil {
		t.Fatal("ParseLogFormat accepted junk")
	}
}

// lockedBuffer makes bytes.Buffer safe for the concurrent test's reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
