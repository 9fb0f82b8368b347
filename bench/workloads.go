package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"
)

// workloads lists every workload in the order a full run executes them.
// BENCHMARK.json and README.md say why each is there.
var workloads = []string{"build", "hot", "scan", "churn", "cold-mix", "sharded"}

// servingSpec parameterizes a serving workload.
type servingSpec struct {
	mix      []op
	cache    int     // avserve -cache
	pool     int     // warm study seeds the load targets
	fixtures bool    // pool prebuilt as v2 snapshots before the server starts
	backends int     // > 0: avserve -proxy over this many backends
	openRate float64 // > 0: open-loop warm reads at this rate beside a cold-build stream
}

var servingSpecs = map[string]servingSpec{
	"hot":      {mix: defaultMix, cache: 4, pool: 2},
	"scan":     {mix: scanMix, cache: 4, pool: 2},
	"churn":    {mix: defaultMix, cache: 4, pool: 16, fixtures: true},
	"cold-mix": {mix: defaultMix, cache: 4, pool: 2, openRate: 200},
	"sharded":  {mix: defaultMix, cache: 4, pool: 4, fixtures: true, backends: 2},
}

const (
	// A serving run sets its system up at least setupReps times, and
	// again until setupTime has passed; setup_s is the median. Over
	// prebuilt snapshots a set-up takes about 50 ms, and a median of
	// three such short times moves with every hiccup of the machine.
	setupReps = 3
	setupTime = time.Second
	// minBuildStudies keeps ten studies beyond the build workload's
	// latency_p99_ms even on a slow machine.
	minBuildStudies = 21
	// replayLen is how many requests of a sequence the trace replays in
	// process and sends one at a time.
	replayLen = 2000
	// replicaSeeds is how many fresh seeds a trace builds stage by stage.
	replicaSeeds = 8
)

// runCtx carries one run's settings.
type runCtx struct {
	h     *harness
	seed  int64
	conns int
	tr    *tracer // nil when untraced
}

// phaseSeconds is how long one load phase lasts at least: the whole
// measured time, or half of it in a traced run, which measures an
// untraced phase and then a traced one.
func (rc *runCtx) phaseSeconds() int {
	if rc.tr != nil {
		return runSeconds / 2
	}
	return runSeconds
}

func (rc *runCtx) phase() time.Duration { return time.Duration(rc.phaseSeconds()) * time.Second }

// quietWant is how many of a serving phase's seconds must be quiet for it
// to end on time: two thirds.
func (rc *runCtx) quietWant() int { return rc.phaseSeconds() * 2 / 3 }

// phaseDone reports whether a phase that has run for elapsed may end,
// given that quiet of its units (seconds, or build studies) were measured
// while the hypervisor took less than quietSteal of the CPU time and want
// are needed: after the phase's length once enough were, and after
// maxExtension more in any case.
func (rc *runCtx) phaseDone(elapsed time.Duration, quiet, want int) bool {
	return elapsed >= rc.phase() && (quiet >= want || elapsed >= rc.phase()+maxExtension)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Loop      string            `json:"loop"`
	Conns     int               `json:"conns"`
	Seconds   float64           `json:"duration_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	// Notes holds what the numbers alone do not say: which percentile
	// latency_p99_ms is, sample counts, additivity checks, trace overhead.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// noteQuiet records how much CPU time the hypervisor took in each unit
// (second or study) the run measured, and how many units the timing
// metrics are taken over.
func (r *result) noteQuiet(steal []float64, use []bool, unit string) {
	used := 0
	for _, u := range use {
		if u {
			used++
		}
	}
	r.note("steal: the hypervisor took %.1f%% of the CPU time over %d %s measured; the timing metrics cover %d of them: those under %.0f%%, or the quietest when fewer were",
		100*mean(steal), len(steal), unit, used, 100*quietSteal)
}

// latencyMetrics fills latency_p50_ms from sorted latencies, each timed
// from when its request was due, and returns latency_p99_ms from the same
// samples with which percentile it is. The tail is a trace metric, not an
// end-to-end one: on a 2-vCPU VM it rose by half in runs where the
// hypervisor took 5% of the CPU time, so it cannot hold a bound.
func (r *result) latencyMetrics(sorted []float64) (p99 float64, about string) {
	r.Metrics["latency_p50_ms"] = metric{quantile(sorted, 0.5), "ms"}
	v, q, over := tail(sorted)
	about = fmt.Sprintf("p%s over %d samples (%d beyond it)", pct(q), len(sorted), over)
	if over < minBeyond {
		about += fmt.Sprintf("; fewer than %d beyond any percentile, so this tail is not to be trusted", minBeyond)
	}
	return v, about
}

func pct(q float64) string { return strconv.FormatFloat(100*q, 'f', 1, 64) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runWorkload dispatches one workload by name.
func runWorkload(ctx context.Context, rc *runCtx, name string) (*result, error) {
	if name == "build" {
		return runBuild(ctx, rc)
	}
	spec, ok := servingSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return runServing(ctx, rc, name, spec)
}

// runBuild measures cold study builds in process: each fresh seed goes
// through pipeline.Run, query.New and the v2 write, as avserve does on a
// miss.
func runBuild(ctx context.Context, rc *runCtx) (*result, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	used := make(map[int64]bool)
	dir, err := rc.h.dir("build")
	if err != nil {
		return nil, err
	}
	res := &result{Workload: "build", Seed: rc.seed, Loop: "sequential studies", Conns: 1,
		Metrics: make(map[string]metric)}

	// Set-up is one discarded warm-up study, done setupReps times.
	var setups []float64
	for _, seed := range distinctSeeds(rng, setupReps, used) {
		start := time.Now()
		if _, _, err := buildStudy(ctx, dir, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	type built struct {
		seed int64
		crc  uint32
	}
	var studies []built
	var lat []time.Duration
	var steal []float64 // per study
	quiet := 0
	stopRSS := sampleRSS([]int{os.Getpid()})
	start := time.Now()
	for ctx.Err() == nil && (len(lat) < minBuildStudies || !rc.phaseDone(time.Since(start), quiet, minBuildStudies)) {
		seed := distinctSeeds(rng, 1, used)[0]
		stolen := stealShare()
		t := time.Now()
		out, crc, err := buildStudy(ctx, dir, seed)
		if err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(t))
		steal = append(steal, stolen())
		if steal[len(steal)-1] < quietSteal {
			quiet++
		}
		if err := checkStudy(seed, out); err != nil {
			return nil, err
		}
		studies = append(studies, built{seed, crc})
	}
	elapsed := time.Since(start)
	rss := stopRSS()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, s := range studies {
		if err := checkSnapshot(dir, s.seed, s.crc); err != nil {
			return nil, err
		}
	}
	use := quietest(steal, minBuildStudies)
	res.noteQuiet(steal, use, "studies")
	var timed []float64
	for i, d := range durationsMS(lat) {
		if use[i] {
			timed = append(timed, d)
		}
	}
	sorted := sortedCopy(timed)
	res.Attempted, res.Seconds = len(lat), elapsed.Seconds()
	// Studies run back to back, so the rate is one over their mean time.
	res.Metrics["throughput_ops_s"] = metric{1e3 / mean(timed), "1/s"}
	p99, p99About := res.latencyMetrics(sorted)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["rss_mb"] = metric{median(rss), "MiB"}
	peak, err := pidsMiB("VmHWM", os.Getpid())
	if err != nil {
		return nil, err
	}
	if rc.tr != nil {
		if err := traceBuild(ctx, rc, rng, used, res); err != nil {
			return nil, err
		}
	}
	res.traceOnly("latency_p99_ms", p99, "ms", p99About)
	res.traceOnly("cold_latency_p50_ms", quantile(sorted, 0.5), "ms",
		"every study is a first answer for a never-seen seed, so this is latency_p50_ms")
	res.traceOnly("rss_peak_mb", peak, "MiB", peakAbout)
	return res, nil
}

const peakAbout = "peak resident memory (VmHWM), summed over the processes under test"

// traceOnly reports a number that repeats too little between runs of the
// same code to be an end-to-end metric with a bound: as a note, and in a
// traced run as a layer metric.
func (r *result) traceOnly(name string, v float64, unit, about string) {
	r.note("%s %.4f %s: %s", name, v, unit, about)
	if r.Layers != nil {
		r.Layers[name] = metric{v, unit}
	}
}

// topology is one started set of avserve processes.
type topology struct {
	backends []*proc
	proxy    *proc // nil for direct serving
	dir      string
	rssStart float64 // RssAnon over the backends before any study loads
	setup    time.Duration
	// first holds the first request for each pool seed: an answer for a
	// seed these processes have never seen.
	first []sample
}

func (t *topology) entry() *proc {
	if t.proxy != nil {
		return t.proxy
	}
	return t.backends[0]
}

func (t *topology) procs() []*proc {
	if t.proxy != nil {
		return append(append([]*proc(nil), t.backends...), t.proxy)
	}
	return t.backends
}

func (t *topology) stop() {
	for _, p := range t.procs() {
		p.stop()
	}
}

// startTopology starts the workload's processes over dir and sends the
// first request for every pool seed, one at a time, so that each first
// answer has the machine to itself: two cold builds at once would each
// take about twice as long, by an amount that varies from run to run.
// Set-up runs from the first launch until all have answered.
func startTopology(ctx context.Context, rc *runCtx, spec servingSpec, dir string, pool []int64) (*topology, error) {
	first := time.Now()
	t := &topology{dir: dir}
	n := max(spec.backends, 1)
	for i := 0; i < n; i++ {
		p, err := rc.h.startAvserve(ctx, "-cache", strconv.Itoa(spec.cache), "-snapshot-dir", dir)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.backends = append(t.backends, p)
	}
	var err error
	if t.rssStart, err = statusMiB("RssAnon", t.backends...); err != nil {
		t.stop()
		return nil, err
	}
	if spec.backends > 0 {
		urls := make([]string, len(t.backends))
		for i, b := range t.backends {
			urls[i] = b.url
		}
		if t.proxy, err = rc.h.startAvserve(ctx, "-proxy", "-backends", strings.Join(urls, ",")); err != nil {
			t.stop()
			return nil, err
		}
	}
	warm := make([]request, len(pool))
	for i, seed := range pool {
		warm[i] = request{op: "warm-up", seed: seed, path: resolve(spec.mix[0].path, seed, 0)}
	}
	if len(warm) > 0 {
		conn := newConn()
		t.first = closedLoop(ctx, t.entry().url, warm, []*http.Client{conn}, nil, int64(len(warm)), "warm-up", nil)
		conn.CloseIdleConnections()
	}
	t.setup = time.Since(first)
	if err := ctx.Err(); err != nil {
		t.stop()
		return nil, err
	}
	if n := countFailed(t.first); n > 0 {
		t.stop()
		return nil, fmt.Errorf("warm-up: %d of %d pool seeds failed", n, len(t.first))
	}
	return t, nil
}

func newConns(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = newConn()
	}
	return out
}

// loadRun is one timed load phase.
type loadRun struct {
	warm    []sample // closed-loop requests, or the open-loop warm stream
	cold    []sample // cold-mix builds of never-seen seeds
	start   time.Time
	elapsed time.Duration
	rss     []float64 // summed VmRSS of the processes under test, every 100 ms
	steal   []float64 // share of CPU time the hypervisor took in each whole second
	use     []bool    // the seconds the timing metrics are taken over
}

func (l loadRun) all() []sample { return append(append([]sample(nil), l.warm...), l.cold...) }

// timedWarm returns the warm requests that ended in a second the timing
// metrics are taken over.
func (l loadRun) timedWarm() []sample { return inSeconds(l.warm, l.start, l.use) }

// drive runs one phase of the workload's load against the topology.
func drive(ctx context.Context, rc *runCtx, spec servingSpec, topo *topology, seq, coldSeq []request, tr *tracer) loadRun {
	base := topo.entry().url
	stopRSS := sampleRSS(pids(topo.procs()))
	clock := startPhase(rc)
	out := loadRun{start: clock.start}
	if spec.openRate > 0 {
		warmConn, coldConn := newConn(), newConn()
		done := make(chan []sample)
		go func() {
			done <- closedLoop(ctx, base, coldSeq, []*http.Client{coldConn}, clock.done, int64(len(coldSeq)), "cold-request", tr)
		}()
		out.warm = openLoop(ctx, seq, spec.openRate, clock.start, clock.done, func(r request, due time.Time) sample {
			return send(ctx, warmConn, base, r, due, "request", tr)
		})
		out.cold = <-done
		closeConns([]*http.Client{warmConn, coldConn})
	} else {
		conns := newConns(rc.conns)
		out.warm = closedLoop(ctx, base, seq, conns, clock.done, 0, "request", tr)
		closeConns(conns)
	}
	out.elapsed = time.Since(clock.start)
	out.rss = stopRSS()
	out.steal = clock.finish()
	out.use = quietest(out.steal, rc.quietWant())
	return out
}

// runServing measures one serving workload against real avserve
// processes.
func runServing(ctx context.Context, rc *runCtx, name string, spec servingSpec) (*result, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	used := make(map[int64]bool)
	pool := distinctSeeds(rng, spec.pool, used)
	seq := sequence(rng, spec.mix, pool, sequenceLen)
	// Never-seen seeds for cold-mix's cold stream: one set for the run and
	// another for a traced rerun, each more than a 60 s run can build.
	var coldSeq, tracedColdSeq []request
	if spec.openRate > 0 {
		for i, seed := range distinctSeeds(rng, 512, used) {
			r := sequence(rng, spec.mix, []int64{seed}, 1)[0]
			if i%2 == 0 {
				coldSeq = append(coldSeq, r)
			} else {
				tracedColdSeq = append(tracedColdSeq, r)
			}
		}
	}
	probeOffset := 50 * rng.Intn(20)
	replicas := distinctSeeds(rng, replicaSeeds, used)

	res := &result{Workload: name, Seed: rc.seed, Loop: "closed", Conns: rc.conns, Metrics: make(map[string]metric)}
	if spec.openRate > 0 {
		res.Loop = fmt.Sprintf("open %.0f/s warm + closed cold", spec.openRate)
		res.Conns = 2
	}
	fixDir := ""
	if spec.fixtures {
		var err error
		if fixDir, err = rc.h.dir("fixtures"); err != nil {
			return nil, err
		}
		if err := writeFixtures(ctx, fixDir, pool); err != nil {
			return nil, err
		}
	}
	if _, err := rc.h.buildAvserve(ctx); err != nil {
		return nil, err
	}

	var topo *topology
	var setups []float64
	var firsts []sample
	begin := time.Now()
	for topo == nil {
		dir := fixDir
		if dir == "" {
			var err error
			if dir, err = rc.h.dir("snapshots"); err != nil {
				return nil, err
			}
		}
		t, err := startTopology(ctx, rc, spec, dir, pool)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.setup.Seconds())
		firsts = append(firsts, t.first...)
		if len(setups) < setupReps || time.Since(begin) < setupTime {
			t.stop()
		} else {
			topo = t
		}
	}
	defer topo.stop()

	load := drive(ctx, rc, spec, topo, seq, coldSeq, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	all := load.all()
	res.Attempted, res.Failed, res.Seconds = len(all), countFailed(all), load.elapsed.Seconds()
	res.Metrics["throughput_ops_s"] = metric{rateIn(all, load.start, load.use), "1/s"}
	p99, p99About := res.latencyMetrics(latenciesMS(load.timedWarm()))
	res.Metrics["rss_mb"] = metric{median(load.rss), "MiB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.note("setup_s is the median of %d set-ups", len(setups))
	res.noteQuiet(load.steal, load.use, "seconds")
	peak, err := statusMiB("VmHWM", topo.procs()...)
	if err != nil {
		return nil, err
	}
	// First answers for never-seen seeds: cold-mix's cold stream, or else
	// each set-up's first request per pool seed, which on an empty
	// snapshot dir is a build and over fixtures a snapshot open.
	colds, coldAbout := firsts, "first request per pool seed in each set-up"
	if spec.openRate > 0 {
		colds, coldAbout = load.cold, "the cold stream's builds"
		res.note("cold-mix: %d warm requests open-loop, %d cold builds; the latency metrics cover warm requests", len(load.warm), len(load.cold))
	}

	if rc.tr != nil {
		if err := traceServing(ctx, rc, spec, topo, pool, replicas, seq, tracedColdSeq, load, res); err != nil {
			return nil, err
		}
	}
	if err := checkProbes(ctx, topo, spec.mix, pool[0], probeOffset); err != nil {
		return nil, err
	}
	res.traceOnly("latency_p99_ms", p99, "ms", p99About)
	res.traceOnly("cold_latency_p50_ms", quantile(latenciesMS(colds), 0.5), "ms",
		fmt.Sprintf("median of %d first answers for never-seen seeds, %s", len(colds), coldAbout))
	res.traceOnly("rss_peak_mb", peak, "MiB", peakAbout)
	return res, nil
}

// checkProbes fetches one probe URL per mix op, uncompressed, from the
// workload's entry point and compares each body byte for byte with an
// in-process serve.New over a fresh build. Behind a proxy, every backend
// is also asked directly and must give the same bytes.
func checkProbes(ctx context.Context, topo *topology, mix []op, seed int64, offset int) error {
	ref, err := buildServer()
	if err != nil {
		return err
	}
	c := newConn()
	defer c.CloseIdleConnections()
	targets := topo.procs()
	for _, r := range probes(mix, seed, offset) {
		req := httptest.NewRequest(http.MethodGet, r.path, nil)
		req.Header.Set("Accept-Encoding", "identity")
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe %s: reference answered %d: %s", r.path, rec.Code, rec.Body.Bytes())
		}
		want := rec.Body.Bytes()
		for _, p := range targets {
			code, _, got, err := fetch(ctx, c, p.url+r.path, true)
			if err != nil {
				return fmt.Errorf("probe %s%s: %w", p.url, r.path, err)
			}
			if code != http.StatusOK || string(got) != string(want) {
				return fmt.Errorf("probe %s%s: status %d, %d bytes differ from the fresh in-process build (%d bytes)",
					p.url, r.path, code, len(got), len(want))
			}
		}
	}
	return nil
}
