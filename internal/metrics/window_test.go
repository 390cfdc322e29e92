package metrics

import (
	"bytes"
	"encoding/json"
	"expvar"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"itpsim/internal/arch"
)

func TestWindowsDefaultSize(t *testing.T) {
	if got := NewWindows(0).Size(); got != DefaultWindow {
		t.Fatalf("default size = %d, want %d", got, DefaultWindow)
	}
	if got := NewWindows(500).Size(); got != 500 {
		t.Fatalf("size = %d, want 500", got)
	}
}

func TestWindowsDeltasAndIPC(t *testing.T) {
	miss := uint64(5) // pre-run value must not leak into the first window
	w := NewWindows(1000)
	w.Track("miss", func() uint64 { return miss })

	miss += 7
	w.Close(1000, 2000, nil)
	miss += 3
	w.Close(2000, 2500, nil)

	recs := w.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	r0, r1 := recs[0], recs[1]
	if r0.Window != 0 || r0.Retired != 1000 || r0.Instr != 1000 || r0.Cycles != 2000 {
		t.Fatalf("window 0 = %+v", r0)
	}
	if r0.IPC != 0.5 {
		t.Fatalf("window 0 IPC = %v, want 0.5", r0.IPC)
	}
	if r0.Counters["miss"] != 7 {
		t.Fatalf("window 0 miss delta = %d, want 7 (pre-run value leaked)", r0.Counters["miss"])
	}
	if r1.Window != 1 || r1.Instr != 1000 || r1.Cycles != 500 || r1.IPC != 2.0 {
		t.Fatalf("window 1 = %+v", r1)
	}
	if r1.Counters["miss"] != 3 {
		t.Fatalf("window 1 miss delta = %d, want 3", r1.Counters["miss"])
	}
	if w.Closed() != 2 {
		t.Fatalf("Closed = %d, want 2", w.Closed())
	}
	if got := w.Live()["miss"]; got != 10 {
		t.Fatalf("live miss = %d, want 10 (events since Track)", got)
	}
}

// TestWindowsSinkRunsOutsideLock is the regression test for streaming
// under w.mu: a sink that re-enters the Windows (Recent/Closed for
// context, as a stall diagnostic would) used to deadlock because Close
// called it with the lock held. It must also still observe the
// annotated record, and observe it before the next Close.
func TestWindowsSinkRunsOutsideLock(t *testing.T) {
	w := NewWindows(100)
	var got []WindowRecord
	var closedAt []uint64
	w.SetSink(func(rec *WindowRecord) {
		// Re-entering the Windows from the sink deadlocked before the
		// fix; Closed() already counts the window being streamed.
		closedAt = append(closedAt, w.Closed())
		if n := len(w.Recent(1)); n != 1 {
			t.Fatalf("Recent(1) from sink = %d records", n)
		}
		got = append(got, *rec)
	})
	annotate := func(rec *WindowRecord) { rec.STLBMPKIInstr = 7 }
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Close(100, 200, annotate)
		w.Close(200, 400, annotate)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with a re-entrant sink")
	}
	if len(got) != 2 || got[0].Window != 0 || got[1].Window != 1 {
		t.Fatalf("sink saw %+v, want windows 0 and 1 in order", got)
	}
	for i, rec := range got {
		if rec.STLBMPKIInstr != 7 {
			t.Errorf("sink record %d missed the annotation: %+v", i, rec)
		}
	}
	if closedAt[0] != 1 || closedAt[1] != 2 {
		t.Errorf("Closed() from sink = %v, want [1 2] (record published before streaming)", closedAt)
	}
}

func TestWindowsAnnotate(t *testing.T) {
	w := NewWindows(100)
	enabled := true
	w.Close(100, 100, func(rec *WindowRecord) {
		rec.STLBMPKIInstr = 1.5
		rec.XPTPEnabled = &enabled
	})
	recs := w.Records()
	if recs[0].STLBMPKIInstr != 1.5 {
		t.Fatalf("annotate lost MPKI: %+v", recs[0])
	}
	if recs[0].XPTPEnabled == nil || !*recs[0].XPTPEnabled {
		t.Fatalf("annotate lost xPTP bit: %+v", recs[0])
	}
}

func TestWindowsRetentionAndSink(t *testing.T) {
	w := NewWindows(10)
	var streamed []uint64
	w.SetSink(func(rec *WindowRecord) { streamed = append(streamed, rec.Window) })
	w.SetRetain(3)
	for i := uint64(1); i <= 8; i++ {
		w.Close(arch.Instr(i*10), arch.Cycle(i*10), nil)
	}
	if len(streamed) != 8 {
		t.Fatalf("sink saw %d windows, want all 8", len(streamed))
	}
	recs := w.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	if recs[0].Window != 5 || recs[2].Window != 7 {
		t.Fatalf("retained windows %d..%d, want 5..7", recs[0].Window, recs[2].Window)
	}
	// Deltas must still chain correctly across dropped records.
	if recs[2].Retired != 80 || recs[2].Instr != 10 {
		t.Fatalf("window 7 = %+v", recs[2])
	}
}

func TestWindowsRecent(t *testing.T) {
	w := NewWindows(10)
	if got := w.RecentString(3); !strings.Contains(got, "no windows") {
		t.Fatalf("empty RecentString = %q", got)
	}
	for i := uint64(1); i <= 4; i++ {
		w.Close(arch.Instr(i*10), arch.Cycle(i*20), nil)
	}
	recent := w.Recent(2)
	if len(recent) != 2 || recent[0].Window != 2 || recent[1].Window != 3 {
		t.Fatalf("Recent(2) = %+v", recent)
	}
	if got := w.Recent(100); len(got) != 4 {
		t.Fatalf("Recent(100) = %d records, want 4", len(got))
	}
	s := w.RecentString(2)
	if !strings.Contains(s, "w2{") || !strings.Contains(s, "w3{") || !strings.Contains(s, " | ") {
		t.Fatalf("RecentString = %q", s)
	}
}

// TestWindowsConcurrentReaders mirrors the watchdog's access pattern: a
// supervisor goroutine reads recent history while the run loop closes
// windows. Meaningful under -race.
func TestWindowsConcurrentReaders(t *testing.T) {
	var c uint64
	w := NewWindows(10)
	w.Track("x", func() uint64 { return c })
	w.SetRetain(8)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = w.Recent(5)
				_ = w.RecentString(3)
				_ = w.Closed()
				_ = w.Live()
			}
		}
	}()
	for i := uint64(1); i <= 500; i++ {
		c += 2
		w.Close(arch.Instr(i*10), arch.Cycle(i*12), nil)
	}
	close(stop)
	wg.Wait()
	if w.Closed() != 500 {
		t.Fatalf("Closed = %d, want 500", w.Closed())
	}
	if got := w.Live()["x"]; got != 1000 {
		t.Fatalf("live x = %d, want 1000", got)
	}
}

// TestWindowsCarryAcross: a reset of the observed counters partway
// through a window must not change the window's delta — the pre-reset
// part is carried, counters the reset leaves alone are unaffected, and
// the next window starts from the post-reset baseline.
func TestWindowsCarryAcross(t *testing.T) {
	var reset, plain uint64 // reset is zeroed mid-window, plain is not
	w := NewWindows(100)
	w.Track("reset", func() uint64 { return reset })
	w.Track("plain", func() uint64 { return plain })

	reset, plain = 4, 4
	w.Close(100, 100, nil)
	reset, plain = reset+3, plain+3
	w.CarryAcross(func() { reset = 0 })
	reset, plain = reset+2, plain+2
	w.Close(200, 200, nil)
	reset, plain = reset+1, plain+1
	w.Close(300, 300, nil)

	for i, want := range []uint64{4, 5, 1} {
		rec := w.Records()[i]
		if rec.Counters["reset"] != want || rec.Counters["plain"] != want {
			t.Errorf("window %d deltas = %v, want %d for both counters", i, rec.Counters, want)
		}
	}
	if live := w.Live(); live["reset"] != 10 || live["plain"] != 10 {
		t.Errorf("live totals = %v, want 10 for both counters", live)
	}
}

// TestWindowsLive: the live view is stored at each close — retired,
// windows closed, and every counter's cumulative value, including
// Watch-only counters that have no per-window delta in the records.
func TestWindowsLive(t *testing.T) {
	w := NewWindows(10)
	if w.Live() != nil {
		t.Fatalf("live view before the first close = %v, want nil", w.Live())
	}
	var x, flips uint64
	w.Track("x", func() uint64 { return x })
	w.Watch("flips", func() uint64 { return flips })
	x, flips = 3, 1
	w.Close(10, 20, nil)
	x, flips = 5, 2
	w.Close(20, 40, nil)
	x = 9 // not yet closed: the live view must not see it

	want := map[string]uint64{"retired": 20, "windows": 2, "x": 5, "flips": 2}
	got := w.Live()
	if len(got) != len(want) {
		t.Fatalf("live view = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("live view = %v, want %v", got, want)
		}
	}
	if _, ok := w.Records()[1].Counters["flips"]; ok {
		t.Fatal("watched counter leaked into the window records")
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	var x uint64
	w := NewWindows(10)
	w.Track("x", func() uint64 { return x })
	x = 7
	w.Close(10, 10, nil)
	const name = "itpsim.test.windows"
	w.PublishExpvar(name)
	w.PublishExpvar(name) // second publish must not panic
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar not published")
	}
	if got, want := v.String(), `{"retired":10,"windows":1,"x":7}`; got != want {
		t.Fatalf("expvar value = %s, want %s", got, want)
	}
}

// TestPublishExpvarReleasesWindows: expvar keeps a published value for
// the life of the process, so it must hold only the live view. The
// Windows — whose readers reach a whole machine — must become garbage
// once its owner drops it.
func TestPublishExpvarReleasesWindows(t *testing.T) {
	freed := make(chan struct{})
	func() {
		var x uint64
		w := NewWindows(10)
		w.Track("x", func() uint64 { return x })
		runtime.SetFinalizer(w, func(*Windows) { close(freed) })
		x = 3
		w.Close(10, 10, nil)
		w.PublishExpvar("itpsim.test.released")
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			if got, want := expvar.Get("itpsim.test.released").String(), `{"retired":10,"windows":1,"x":3}`; got != want {
				t.Fatalf("expvar value after release = %s, want %s", got, want)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("published expvar keeps the Windows (and its readers) reachable")
}

func TestJSONLExport(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	if err := j.Manifest(Manifest{
		Tool:        "itpsim",
		Git:         "deadbeef",
		ConfigHash:  ConfigHash([]byte("cfg")),
		WindowInstr: 1000,
		Policies:    map[string]string{"stlb": "itp"},
		Workloads:   []string{"srv_000"},
	}); err != nil {
		t.Fatal(err)
	}
	w := NewWindows(1000)
	w.SetSink(j.WindowSink("srv_000", nil))
	w.Close(1000, 4000, nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var man map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &man); err != nil {
		t.Fatal(err)
	}
	if man["type"] != "manifest" || man["tool"] != "itpsim" || man["window_instr"] != float64(1000) {
		t.Fatalf("manifest line = %v", man)
	}
	if len(man["config_hash"].(string)) != 64 {
		t.Fatalf("config hash = %v", man["config_hash"])
	}
	var win map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &win); err != nil {
		t.Fatal(err)
	}
	if win["type"] != "window" || win["job"] != "srv_000" || win["retired"] != float64(1000) || win["ipc"] != 0.25 {
		t.Fatalf("window line = %v", win)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errShort
	}
	f.budget -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "disk full" }

func TestWindowSinkStopsAfterError(t *testing.T) {
	j := NewJSONL(&failWriter{budget: 1})
	var calls int
	sink := j.WindowSink("job", func(error) { calls++ })
	rec := &WindowRecord{Window: 0}
	sink(rec)
	sink(rec)
	sink(rec)
	if calls != 1 {
		t.Fatalf("onErr called %d times, want exactly once", calls)
	}
}

func TestGitDescribeNeverEmpty(t *testing.T) {
	if GitDescribe() == "" {
		t.Fatal("GitDescribe must return a placeholder, not empty")
	}
}
