package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailLeavesSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10}, // the 990th of 1000 has ten above it
		{999, 0.99, 9},
		{2000, 0.95, 100},
		{21, 0.5, 10},
		{0, 0.99, 0},
	} {
		if got := beyond(tc.n, tc.q); got != tc.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n           int
		value, q    float64
		wantBeyond  int
		description string
	}{
		{5000, 4950, 0.99, 50, "p99 with more than ten beyond"},
		{1000, 990, 0.99, 10, "p99 with exactly ten beyond"},
		{999, 989, 989.0 / 999, 10, "one short: the highest percentile that keeps ten beyond"},
		{30, 20, 20.0 / 30, 10, "a build run's thirty studies"},
		{20, 10, 0.5, 10, "twenty samples: the median"},
		{3, 2, 0.5, 1, "too few for any: the median"},
	} {
		v, q, over := tail(ramp(tc.n))
		if v != tc.value || math.Abs(q-tc.q) > 1e-12 || over != tc.wantBeyond {
			t.Errorf("%s: tail of %d = %v at q %v with %d beyond, want %v at q %v with %d",
				tc.description, tc.n, v, q, over, tc.value, tc.q, tc.wantBeyond)
		}
		if n := tc.n - int(tc.value); n != over {
			t.Errorf("%s: %d samples lie beyond %v, tail says %d", tc.description, n, tc.value, over)
		}
	}
	r := &result{Metrics: make(map[string]metric)}
	if _, about := r.latencyMetrics([]float64{1, 2, 3}); !strings.Contains(about, "not to be trusted") {
		t.Fatalf("a tail with too few samples beyond it is not flagged: %q", about)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two values: %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func TestSelfTimeOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // only [90,100) is inside the parent
		{ID: 5, Parent: 2, Start: 15, End: 35},   // a grandchild: span 2's, not span 1's
		{ID: 6, Parent: 0, Start: 200, End: 210}, // another root, no children
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 20, 3: 30, 4: 30, 5: 20, 6: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}

const scrapeText = `# HELP avserve_requests_total Completed HTTP requests by route and status code.
# TYPE avserve_requests_total counter
avserve_requests_total{route="/v1/studies/{seed}/groupby",code="200"} 12
avserve_request_duration_seconds_bucket{route="/v1/studies/{seed}/groupby",le="+Inf"} 12
avserve_request_duration_seconds_sum{route="/v1/studies/{seed}/groupby"} 0.006
avserve_request_duration_seconds_count{route="/v1/studies/{seed}/groupby"} 12
avserve_request_duration_seconds_sum{route="/v1/studies/{seed}/tables/{id}"} 0.004
avserve_request_duration_seconds_count{route="/v1/studies/{seed}/tables/{id}"} 4
avserve_request_duration_seconds_sum{route="/metrics"} 1
avserve_request_duration_seconds_count{route="/metrics"} 1
# TYPE avserve_cache_hits_total counter
avserve_cache_hits_total 30
avserve_cache_misses_total 2
avserve_cache_resident 2
avserve_proxy_retries_total 0
`

func TestParsePromLinesTheBenchmarkReads(t *testing.T) {
	m, err := parseProm(scrapeText)
	if err != nil {
		t.Fatal(err)
	}
	if m["avserve_cache_hits_total"] != 30 || m["avserve_cache_resident"] != 2 {
		t.Fatalf("counters: %v", m)
	}
	d := m.routeDurations()
	if got := d["/v1/studies/{seed}/groupby"]; got != [2]float64{12, 0.006} {
		t.Fatalf("groupby count/sum = %v", got)
	}
	if got := d["/v1/studies/{seed}/tables/{id}"]; got != [2]float64{4, 0.004} {
		t.Fatalf("tables count/sum = %v", got)
	}
	// The scrape's own route is not a study route: 16 requests, 10 ms.
	if got := serverMeanUS(m); math.Abs(got-625) > 1e-9 {
		t.Fatalf("serverMeanUS = %v, want 625", got)
	}
	before, _ := parseProm("avserve_cache_hits_total 10\n")
	if got := m.delta(before)["avserve_cache_hits_total"]; got != 20 {
		t.Fatalf("delta = %v, want 20", got)
	}
	if _, err := parseProm("avserve_cache_hits_total\n"); err == nil {
		t.Fatal("a line without a value parsed")
	}
}

func TestParseCPULineCountsStealOnce(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	total, steal, err := parseCPULine("cpu  600 0 100 200 0 0 20 80 50 0")
	if err != nil {
		t.Fatal(err)
	}
	// guest is already part of user and is not added again.
	if total != 1000 || steal != 80 {
		t.Fatalf("total %v steal %v, want 1000 and 80", total, steal)
	}
	if _, _, err := parseCPULine("cpu0 1 2 3 4 5 6 7 8"); err == nil {
		t.Fatal("a per-CPU line parsed as the aggregate one")
	}
}

func TestOpenLoopChargesLatenessToLaterRequests(t *testing.T) {
	const interval = 10 * time.Millisecond
	start := time.Now()
	stall := 45 * time.Millisecond
	seq := []request{{op: "a"}}
	var k int
	samples := openLoop(context.Background(), seq, float64(time.Second/interval), start, func() bool { return k >= 12 },
		func(r request, due time.Time) sample {
			s := sample{op: r.op, sched: due, start: time.Now()}
			if k == 2 {
				time.Sleep(stall) // the third answer is slow
			}
			k++
			s.end = time.Now()
			return s
		})
	if len(samples) != 12 {
		t.Fatalf("%d requests sent, want one per interval: 12", len(samples))
	}
	late := lateness(samples)
	for i, s := range samples {
		if want := start.Add(time.Duration(i) * interval); !s.sched.Equal(want) {
			t.Fatalf("request %d due %v after start, want %v", i, s.sched.Sub(start), want.Sub(start))
		}
		if s.latency() < s.end.Sub(s.start) {
			t.Fatalf("request %d: latency %v shorter than its service time", i, s.latency())
		}
	}
	// The stall pushes the next request past its slot; its latency counts
	// the wait from when it was due.
	if late[3] < float64((stall-interval)/time.Millisecond)/2 {
		t.Fatalf("request after the stall was %.1f ms late, want about %v", late[3], stall-interval)
	}
	if samples[3].latency() < stall-interval {
		t.Fatalf("request after the stall: latency %v, want at least %v", samples[3].latency(), stall-interval)
	}
	// The loop catches up: the last requests go out on time again.
	if late[11] > 5 {
		t.Fatalf("last request %.1f ms late; the schedule should have caught up", late[11])
	}
}

func TestRateCountsSuccessesInTheChosenSeconds(t *testing.T) {
	start := time.Now()
	var samples []sample
	// Five seconds at 100 successes a second, but only 10 in the third
	// second, plus a failure each second and a straggler past the phase's
	// end.
	for sec := 0; sec < 5; sec++ {
		n := 100
		if sec == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			end := start.Add(time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond)
			samples = append(samples, sample{end: end, code: 200})
		}
		samples = append(samples, sample{end: start.Add(time.Duration(sec) * time.Second), code: 500})
	}
	samples = append(samples, sample{end: start.Add(5500 * time.Millisecond), code: 200})
	if got := rateIn(samples, start, []bool{true, true, true, true, true}); got != 82 {
		t.Fatalf("rate over every second = %v, want 82", got)
	}
	if got := rateIn(samples, start, []bool{true, true, false, true, true}); got != 100 {
		t.Fatalf("rate without the third second = %v, want 100", got)
	}
	if n := len(inSeconds(samples, start, []bool{false, false, true})); n != 11 {
		t.Fatalf("%d samples ended in the third second, want 11", n)
	}
}

func TestQuietestPrefersSecondsWithoutSteal(t *testing.T) {
	steal := []float64{0.01, 0.30, 0.02, 0.20, 0.00, 0.10}
	for _, tc := range []struct {
		want int
		use  []bool
	}{
		{3, []bool{true, false, true, false, true, false}},
		{2, []bool{true, false, true, false, true, false}}, // every quiet one, more than wanted
		{4, []bool{true, false, true, false, true, true}},  // one short: the least stolen of the rest
		{6, []bool{true, true, true, true, true, true}},
	} {
		got := quietest(steal, tc.want)
		for i := range got {
			if got[i] != tc.use[i] {
				t.Errorf("want %d: quietest = %v, want %v", tc.want, got, tc.use)
				break
			}
		}
	}
}

func TestPhaseWaitsForQuietSecondsUpToALimit(t *testing.T) {
	rc := &runCtx{}
	want := rc.quietWant()
	for _, tc := range []struct {
		elapsed time.Duration
		quiet   int
		done    bool
	}{
		{rc.phase() - time.Second, want, false},
		{rc.phase(), want, true},
		{rc.phase(), want - 1, false},
		{rc.phase() + maxExtension - time.Second, 0, false},
		{rc.phase() + maxExtension, 0, true},
	} {
		if got := rc.phaseDone(tc.elapsed, tc.quiet, want); got != tc.done {
			t.Errorf("after %v with %d of %d quiet: done %v, want %v", tc.elapsed, tc.quiet, want, got, tc.done)
		}
	}
}

func TestCompareBoundAndUnresolved(t *testing.T) {
	lower := boundSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		bs   boundSpec
		want string
	}{
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, lower, "ok"},
		{"worse than bound", steady, []float64{115, 116, 114, 115, 115}, lower, "regressed"},
		{"higher is better", steady, []float64{85, 86, 84, 85, 85}, higher, "regressed"},
		{"much better", steady, []float64{80, 81, 79, 80, 80}, lower, "better"},
		{"noisy baseline", []float64{70, 130, 100, 80, 120}, []float64{115, 116, 114, 115, 115}, lower, "unresolved"},
		{"noisy but every run better", []float64{100, 140, 120, 110, 130}, []float64{60, 90, 70, 80, 95}, lower, "better"},
	} {
		if got := compareMetric(tc.a, tc.b, tc.bs); got.label != tc.want {
			t.Errorf("%s: %s (change %+.3f), want %s", tc.name, got.label, got.change, tc.want)
		}
	}
}

func TestCompareRefusesDifferentSettingsOrEnvironment(t *testing.T) {
	dir := t.TempDir()
	rec := record{result: result{Workload: "hot", Metrics: map[string]metric{"latency_p50_ms": {1, "ms"}}}}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := appendRecord(a, settings{Conns: 2}, rec); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(a, settings{Conns: 2, Trace: true}, rec); err == nil {
		t.Fatal("appended a run with other settings")
	}
	if err := appendRecord(b, settings{Conns: 2, Trace: true}, rec); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare(a, b, &out, &errOut); code != 2 {
		t.Fatalf("compare of different settings exited %d, want 2 (%s)", code, errOut.String())
	}
	f, err := readResultFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 1 || f.Runs[0].Metrics["latency_p50_ms"].Value != 1 {
		t.Fatalf("result file round trip: %+v", f.Runs)
	}
	// Same settings, measured on a box with another CPU count.
	f.Env.NProc++
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	c := filepath.Join(dir, "c.json")
	if err := os.WriteFile(c, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runCompare(a, c, &out, &errOut); code != 2 {
		t.Fatalf("compare across environments exited %d, want 2", code)
	}
}
