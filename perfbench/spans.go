package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Calls too frequent to keep one
// span each (router decisions inside a query) are folded into their
// parent as a child count and child time, from which the parent's self
// time follows.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Children int64  `json:"children,omitempty"`
	ChildNs  int64  `json:"child_ns,omitempty"`
}

// tracer keeps spans in memory. It is not safe for concurrent use; each
// workload calls it only from the goroutine that runs the workload.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

// child folds one call of d into span id.
func (t *tracer) child(id int32, d time.Duration) {
	s := &t.spans[id]
	s.Children++
	s.ChildNs += int64(d)
}

// total sums the duration, self time and count of the spans named name.
func (t *tracer) total(name string) (dur, self time.Duration, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			dur += time.Duration(s.EndNs - s.StartNs)
			self += time.Duration(s.EndNs - s.StartNs - s.ChildNs)
			n++
		}
	}
	return dur, self, n
}

// write stores every span as one JSON line and returns the file path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	path := spansPath(workload, seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
