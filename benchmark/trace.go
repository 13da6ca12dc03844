package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded call: its name, its interval in ns since the
// tracer started, the span that made the call, and the solve it belongs to
// (-1 for set-up and probes).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around the benchmark's calls into each
// layer. Spans nest by call order, so a tracer is used from one goroutine.
// A nil *tracer records nothing: untraced code paths call the same methods.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), req: -1} }

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// setReq tags the spans begun from now on with solve index req.
func (t *tracer) setReq(req int) {
	if t != nil {
		t.req = req
	}
}

// durations returns the durations in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTime is one span name's total duration and its self time: the
// duration minus the part its child spans cover. Children are sequential
// because spans are recorded from one goroutine, so the covered part is the
// sum of their durations.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func (t *tracer) printSelfTimes() {
	fmt.Printf("  %-32s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, st := range t.selfTimes() {
		fmt.Printf("  %-32s %7d %12.6f %12.6f\n", st.name, st.count, st.total.Seconds(), st.self.Seconds())
	}
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
