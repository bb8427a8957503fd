package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Structured leveled logging for the serving layer: key/value records
// rendered as logfmt or JSON, with per-request fields carried by child
// loggers (With) and 1-in-N sampling for high-QPS paths (Sampled). The
// same nil-safety contract as the rest of the package applies: a nil
// *Logger swallows everything with one branch, so call sites need no
// "is logging on" checks.

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel is the inverse of Level.String, for flag-driven callers.
func ParseLevel(s string) (Level, error) {
	for _, l := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		if s == l.String() {
			return l, nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// LogFormat selects the record encoding.
type LogFormat int

const (
	// Logfmt renders `ts=... level=info msg="..." k=v` lines.
	Logfmt LogFormat = iota
	// LogJSON renders one JSON object per line.
	LogJSON
)

// ParseLogFormat maps the flag spellings "logfmt" and "json".
func ParseLogFormat(s string) (LogFormat, error) {
	switch s {
	case "logfmt":
		return Logfmt, nil
	case "json":
		return LogJSON, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown log format %q (want logfmt or json)", s)
	}
}

// logSink is the shared write end of a logger family: one mutex per
// destination, so With/Sampled children interleave whole lines.
type logSink struct {
	mu sync.Mutex
	w  io.Writer
}

// LoggerOptions configures NewLogger. The zero value selects logfmt at
// info level with wall-clock timestamps.
type LoggerOptions struct {
	Level  Level
	Format LogFormat
	// Now overrides the timestamp source (tests pin it for golden output).
	Now func() time.Time
}

// Logger is a leveled key/value logger. Construct with NewLogger; derive
// request-scoped children with With and sampled variants with Sampled.
// All methods are safe for concurrent use and nil-safe.
type Logger struct {
	sink   *logSink
	level  Level
	format LogFormat
	now    func() time.Time
	base   []Attr
	// Sampling state: every is the 1-in-N keep rate (0 = keep all);
	// the counter is shared by all clones of one Sampled call so the
	// rate holds across goroutines.
	every uint64
	seq   *atomic.Uint64
}

// NewLogger returns a logger writing to w.
func NewLogger(w io.Writer, opts LoggerOptions) *Logger {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Logger{
		sink:   &logSink{w: w},
		level:  opts.Level,
		format: opts.Format,
		now:    opts.Now,
	}
}

// With returns a child logger whose records carry the given key/value
// pairs (key, value, key, value, …) before the per-call fields.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil {
		return nil
	}
	c := *l
	c.base = append(append([]Attr(nil), l.base...), pairs(kv)...)
	return &c
}

// Sampled returns a child that keeps 1 in every records at Debug and
// Info level (the first record always passes, so a quiet path still
// surfaces). Warn and Error records are never sampled away. every <= 1
// disables sampling.
func (l *Logger) Sampled(every int) *Logger {
	if l == nil || every <= 1 {
		return l
	}
	c := *l
	c.every = uint64(every)
	c.seq = &atomic.Uint64{}
	return &c
}

// Enabled reports whether records at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	if l.every > 1 && level < LevelWarn {
		// seq starts at 0 so the first record always passes.
		if l.seq.Add(1)%l.every != 1 {
			return
		}
	}
	attrs := pairs(kv)
	var b strings.Builder
	if l.format == LogJSON {
		b.WriteString(`{"ts":`)
		b.WriteString(strconv.Quote(l.now().UTC().Format(time.RFC3339Nano)))
		b.WriteString(`,"level":`)
		b.WriteString(strconv.Quote(level.String()))
		b.WriteString(`,"msg":`)
		b.WriteString(strconv.Quote(msg))
		for _, a := range l.base {
			writeJSONAttr(&b, a)
		}
		for _, a := range attrs {
			writeJSONAttr(&b, a)
		}
		b.WriteString("}\n")
	} else {
		b.WriteString("ts=")
		b.WriteString(l.now().UTC().Format(time.RFC3339Nano))
		b.WriteString(" level=")
		b.WriteString(level.String())
		b.WriteString(" msg=")
		b.WriteString(logfmtValue(msg))
		for _, a := range l.base {
			writeLogfmtAttr(&b, a)
		}
		for _, a := range attrs {
			writeLogfmtAttr(&b, a)
		}
		b.WriteByte('\n')
	}
	l.sink.mu.Lock()
	l.sink.w.Write([]byte(b.String()))
	l.sink.mu.Unlock()
}

// pairs folds a (key, value, …) argument list into attributes; a
// dangling key gets a "(MISSING)" value rather than a panic (logging
// must never take the request down).
func pairs(kv []any) []Attr {
	if len(kv) == 0 {
		return nil
	}
	attrs := make([]Attr, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		var v any = "(MISSING)"
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		attrs = append(attrs, Attr{Key: key, Value: v})
	}
	return attrs
}

func writeJSONAttr(b *strings.Builder, a Attr) {
	b.WriteByte(',')
	b.WriteString(strconv.Quote(a.Key))
	b.WriteByte(':')
	switch v := a.Value.(type) {
	case string:
		b.WriteString(strconv.Quote(v))
	case bool:
		b.WriteString(strconv.FormatBool(v))
	case int:
		b.WriteString(strconv.Itoa(v))
	case int64:
		b.WriteString(strconv.FormatInt(v, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(v, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	case error:
		b.WriteString(strconv.Quote(v.Error()))
	default:
		b.WriteString(strconv.Quote(fmt.Sprint(v)))
	}
}

func writeLogfmtAttr(b *strings.Builder, a Attr) {
	b.WriteByte(' ')
	b.WriteString(a.Key)
	b.WriteByte('=')
	switch v := a.Value.(type) {
	case string:
		b.WriteString(logfmtValue(v))
	case bool:
		b.WriteString(strconv.FormatBool(v))
	case int:
		b.WriteString(strconv.Itoa(v))
	case int64:
		b.WriteString(strconv.FormatInt(v, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(v, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	case error:
		b.WriteString(logfmtValue(v.Error()))
	default:
		b.WriteString(logfmtValue(fmt.Sprint(v)))
	}
}

// logfmtValue quotes a string only when it needs it.
func logfmtValue(s string) string {
	if s == "" {
		return `""`
	}
	for _, r := range s {
		if r == ' ' || r == '"' || r == '=' || r < 0x20 {
			return strconv.Quote(s)
		}
	}
	return s
}
