package server

import (
	"strconv"
	"sync"

	"repro/internal/canon"
)

// Response bodies by appending. The query routes' bodies (recommend,
// sparse recommend, predict, sweep) are written member by member by an
// appender beside each response type, exactly as
// json.MarshalIndent(v, "", "  ") lays them out, plus the trailing newline
// marshalBody adds. encoding/json and the struct tags stay the
// specification: a test holds every appender to marshalBody with every
// field set, and what the appender cannot write exactly — a NaN or ±Inf,
// a string that needs escaping (see internal/canon) — it refuses, and
// renderBody hands the value to marshalBody, which decides.

// bodyWriter appends one indented JSON value. The zero value is not
// usable: get one from renderBody.
type bodyWriter struct {
	b     []byte
	depth int
	empty bool // the innermost open object or array has no member yet
	ok    bool // every member so far is exactly what encoding/json writes
}

// open starts an object or array value.
func (w *bodyWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object or array; an empty one stays on its
// line, as MarshalIndent leaves it.
func (w *bodyWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

func (w *bodyWriter) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

// elem starts the next array element or object member on its own line.
func (w *bodyWriter) elem() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// key starts an object member. Names are Go string literals at the call
// sites, plain ASCII by construction.
func (w *bodyWriter) key(name string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *bodyWriter) Int(name string, v int) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *bodyWriter) Bool(name string, v bool) {
	w.key(name)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *bodyWriter) Float(name string, v float64) {
	w.key(name)
	var ok bool
	w.b, ok = canon.AppendFloat(w.b, v)
	w.ok = w.ok && ok
}

func (w *bodyWriter) String(name, v string) {
	w.key(name)
	var ok bool
	w.b, ok = canon.AppendString(w.b, v)
	w.ok = w.ok && ok
}

// bodyAppender is a response type with an appender.
type bodyAppender interface {
	appendBody(w *bodyWriter)
}

// bodyWriters recycles the scratch buffers bodies are appended into; each
// body is then copied out at its exact size, which is what the cache
// keeps.
var bodyWriters = sync.Pool{New: func() any { return &bodyWriter{b: make([]byte, 0, 2048)} }}

// maxPooledBody bounds the scratch buffers kept for reuse: a paper-grid
// sweep body is a one-off, not the common size.
const maxPooledBody = 64 << 10

// renderBody renders a query route's response body: the appender's bytes,
// or marshalBody's when the appender refuses.
func renderBody[T bodyAppender](v T) ([]byte, error) {
	w := bodyWriters.Get().(*bodyWriter)
	*w = bodyWriter{b: w.b[:0], ok: true}
	v.appendBody(w)
	var body []byte
	if w.ok {
		body = append(make([]byte, 0, len(w.b)+1), w.b...)
		body = append(body, '\n')
	}
	if cap(w.b) <= maxPooledBody {
		bodyWriters.Put(w)
	}
	if body == nil {
		return marshalBody(v)
	}
	return body, nil
}

// renderStage is the marshal stage of a compute's body.
func renderStage[T bodyAppender](rec *requestRecord, v T) ([]byte, error) {
	t := rec.now()
	b, err := renderBody(v)
	rec.end(stageMarshal, t)
	return b, err
}
