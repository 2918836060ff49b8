package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one traced call from the benchmark into a layer of the engine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // operation id shared by the spans of one operation
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices of open spans
	op    int
}

// begin opens a span as a child of the innermost open one. Root spans start
// a new operation id.
func (tr *tracer) begin(name string) {
	if tr == nil {
		return
	}
	parent := 0
	if len(tr.stack) > 0 {
		parent = tr.spans[tr.stack[len(tr.stack)-1]].ID
	} else {
		tr.op++
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Op: tr.op, Name: name, Start: int64(time.Since(tr.t0))})
	tr.stack = append(tr.stack, len(tr.spans)-1)
}

// end closes the innermost open span.
func (tr *tracer) end() {
	if tr == nil {
		return
	}
	i := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	tr.spans[i].End = int64(time.Since(tr.t0))
}

// call wraps f in a span.
func (tr *tracer) call(name string, f func()) {
	tr.begin(name)
	f()
	tr.end()
}

// layer is the span name's prefix up to the first dot.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part its
// children cover, over the spans recorded from index from on.
func (tr *tracer) selfTimes(from int) map[string]time.Duration {
	spans := tr.spans[from:]
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layer(s.Name)] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
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

// spanPath is where a traced run leaves its spans inside the checkout.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
