package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it ran (ns since the
// tracer's epoch), the span that caused it (-1 for a root) and the request
// it belongs to (0 when none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	// prev is the goroutine's active span when this one began, restored
	// when it ends.
	prev int
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced run; a nil *tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// active maps a goroutine to the span it is inside, so a span opened
	// by a layer the caller cannot pass context through (a Querier method,
	// a RoundTripper under the coordinator) finds its parent.
	active sync.Map // goroutine id -> span id
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id; parent < 0 means "whatever span
// this goroutine is inside, if any".
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	gid := goid()
	prev := -1
	if v, ok := t.active.Load(gid); ok {
		prev = v.(int)
	}
	if parent < 0 {
		parent = prev
	}
	if req == 0 && parent >= 0 {
		t.mu.Lock()
		req = t.spans[parent].Req
		t.mu.Unlock()
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Req: req, prev: prev})
	t.mu.Unlock()
	t.active.Store(gid, id)
	return id
}

// end closes span id and restores the goroutine's previously active span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	prev := t.spans[id].prev
	t.mu.Unlock()
	gid := goid()
	if prev >= 0 {
		t.active.Store(gid, prev)
	} else {
		t.active.Delete(gid)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.snapshot() {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). It costs about a microsecond, which is part
// of the tracing overhead the traced run reports.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := buf[len("goroutine "):n]
	for i, c := range b {
		if c == ' ' {
			id, err := strconv.ParseInt(string(b[:i]), 10, 64)
			if err != nil {
				panic(fmt.Sprintf("perfbench: unparsable goroutine header %q", buf[:n]))
			}
			return id
		}
	}
	panic(fmt.Sprintf("perfbench: unparsable goroutine header %q", buf[:n]))
}
