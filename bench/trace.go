package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Additivity tolerances: replayed self times against the server's own
// handler mean per route, and replica stage self times against
// pipeline.Run's wall time.
const (
	requestAdditivity = 0.15
	buildAdditivity   = 0.05
)

// traceLoad is what the traced phases against a running topology record.
type traceLoad struct {
	phase     []sample   // the server phase: the traced load (build: the one-at-a-time phase)
	phaseProm promSample // /metrics change over the server phase, summed over backends
	seq       []sample   // the first replayLen requests, one at a time
	seqProm   promSample // /metrics change over the one-at-a-time phase
	end       promSample // /metrics at the end, summed over backends
	proxyEnd  promSample // the proxy's /metrics at the end; nil when direct
	rssStart  float64
	rssEnd    float64
	overhead  float64 // traced minus untraced latency_p50_ms; NaN when not measured
	lateness  []float64
}

// traceServing reruns the workload's load with spans on, then sends the
// first replayLen requests of the sequence one at a time while replaying
// them in process, probes the snapshot layer, replicates the build of
// replicaSeeds, and fills the per-layer metrics. The servers stay up
// throughout, idle outside the load phases.
func traceServing(ctx context.Context, rc *runCtx, spec servingSpec, topo *topology, pool, replicaSeeds []int64, seq, coldSeq []request, untraced loadRun, res *result) error {
	a, err := scrapeAll(ctx, topo.backends...)
	if err != nil {
		return err
	}
	traced := drive(ctx, rc, spec, topo, seq, coldSeq, rc.tr)
	b, err := scrapeAll(ctx, topo.backends...)
	if err != nil {
		return err
	}
	if n := countFailed(traced.all()); n > 0 {
		return fmt.Errorf("traced load: %d requests failed", n)
	}
	replayDir := topo.dir
	if !spec.fixtures {
		// The server built its studies into an empty directory; the replay
		// does the same in its own.
		if replayDir, err = rc.h.dir("replay"); err != nil {
			return err
		}
	}
	rp, err := newReplayer(ctx, rc.tr, replayDir, spec.cache, pool[0])
	if err != nil {
		return err
	}
	for _, seed := range pool {
		if err := rp.warm(seed); err != nil {
			return err
		}
	}
	tl := &traceLoad{phase: traced.all(), phaseProm: b.delta(a), rssStart: topo.rssStart,
		overhead: quantile(latenciesMS(traced.timedWarm()), 0.5) - quantile(latenciesMS(untraced.timedWarm()), 0.5)}
	if err := interleave(ctx, rc, topo, rp, seq, tl); err != nil {
		return err
	}
	if spec.openRate > 0 {
		tl.lateness = sortedCopy(lateness(traced.warm))
	}
	if topo.proxy != nil {
		if tl.proxyEnd, err = scrape(ctx, topo.proxy); err != nil {
			return err
		}
	}
	probeSeeds := pool[:min(2, len(pool))]
	if err := rp.probeMissingLayers(probeSeeds); err != nil {
		return err
	}
	if err := probeSnapshots(rc.tr, topo.dir, probeSeeds, 20); err != nil {
		return err
	}
	replicas, _, err := replicateAll(ctx, rc, replicaSeeds)
	if err != nil {
		return err
	}
	res.Layers = layerMetrics(rc.tr.snapshot(), tl, rp, replicas, res)
	if topo.proxy != nil {
		hop := mean(latenciesMS(tl.phase))*1e3 - serverMeanUS(tl.phaseProm)
		res.note("proxy.hop_us %.1f us (client mean minus backend handler mean); proxy.retries %.0f",
			hop, tl.proxyEnd["avserve_proxy_retries_total"])
	}
	if len(tl.lateness) > 0 {
		res.note("driver.lateness_p99_ms %.3f ms over %d open-loop sends", quantile(tl.lateness, 0.99), len(tl.lateness))
	}
	res.note("tracing overhead: traced minus untraced latency_p50_ms = %+.3f ms", tl.overhead)
	return nil
}

// interleave sends the first replayLen requests of seq one at a time to
// the topology, replaying each in process as soon as its answer is back,
// and records the client samples, the /metrics change over the server's
// share, the final scrape and the backends' resident memory. Taking turns
// request by request puts both sides under the same machine load, which
// on a shared box drifts within seconds, and gives each replayed request
// what each served one gets: caches that the other side, the client and
// the kernel used in between.
func interleave(ctx context.Context, rc *runCtx, topo *topology, rp *replayer, seq []request, tl *traceLoad) error {
	before, err := scrapeAll(ctx, topo.backends...)
	if err != nil {
		return err
	}
	conn := newConn()
	defer conn.CloseIdleConnections()
	for _, r := range seq[:replayLen] {
		tl.seq = append(tl.seq, send(ctx, conn, topo.entry().url, r, time.Now(), "seq-request", rc.tr))
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rp.do(r, "replay.request"); err != nil {
			return err
		}
	}
	if tl.end, err = scrapeAll(ctx, topo.backends...); err != nil {
		return err
	}
	if n := countFailed(tl.seq); n > 0 {
		return fmt.Errorf("one-at-a-time phase: %d requests failed", n)
	}
	tl.seqProm = tl.end.delta(before)
	tl.rssEnd, err = statusMiB("RssAnon", topo.backends...)
	return err
}

// traceBuild is the build workload's trace: a stage-by-stage replica of
// replicaSeeds fresh seeds, then the written studies served one request at
// a time by avserve and replayed in process.
func traceBuild(ctx context.Context, rc *runCtx, rng *rand.Rand, used map[int64]bool, res *result) error {
	seeds := distinctSeeds(rng, replicaSeeds, used)
	replicas, runDir, err := replicateAll(ctx, rc, seeds)
	if err != nil {
		return err
	}
	spec := servingSpec{mix: defaultMix, cache: 4}
	topo, err := startTopology(ctx, rc, spec, runDir, nil)
	if err != nil {
		return err
	}
	defer topo.stop()
	rp, err := newReplayer(ctx, rc.tr, runDir, spec.cache, seeds[0])
	if err != nil {
		return err
	}
	seq := sequence(rng, defaultMix, seeds, replayLen)
	tl := &traceLoad{rssStart: topo.rssStart, overhead: math.NaN()}
	if err := interleave(ctx, rc, topo, rp, seq, tl); err != nil {
		return err
	}
	// Nothing else ran against this server: its one-at-a-time phase is
	// also its server phase.
	tl.phase, tl.phaseProm = tl.seq, tl.seqProm
	if err := checkProbes(ctx, topo, defaultMix, seeds[0], 0); err != nil {
		return err
	}
	if err := rp.probeMissingLayers(seeds[:2]); err != nil {
		return err
	}
	if err := probeSnapshots(rc.tr, runDir, seeds[:2], 20); err != nil {
		return err
	}
	res.Layers = layerMetrics(rc.tr.snapshot(), tl, rp, replicas, res)
	return nil
}

// replicateAll replicates every seed and returns the results with the
// directory holding pipeline.Run's snapshots.
func replicateAll(ctx context.Context, rc *runCtx, seeds []int64) ([]*replicaResult, string, error) {
	repDir, err := rc.h.dir("replica")
	if err != nil {
		return nil, "", err
	}
	runDir, err := rc.h.dir("replica-run")
	if err != nil {
		return nil, "", err
	}
	var out []*replicaResult
	for i, seed := range seeds {
		r, err := replicate(ctx, rc.tr, repDir, runDir, seed, i%2 == 1)
		if err != nil {
			return nil, "", err
		}
		out = append(out, r)
	}
	return out, runDir, nil
}

// probeMissingLayers replays, on each seed, the default-mix ops of every
// query layer the workload's own replay never called, so that every layer
// has a time on every workload. These requests are "probe.request" roots
// and stay out of the additivity check.
func (rp *replayer) probeMissingLayers(seeds []int64) error {
	seen := make(map[string]bool)
	for _, s := range rp.tr.snapshot() {
		seen[s.Name] = true
	}
	layerOf := map[string]string{
		"groupby": "query.groupby", "metrics/reliability": "query.reliability",
		"accidents": "query.accidents", "tables/i": "report.table", "tables/vii": "report.table",
	}
	for _, o := range defaultMix {
		for _, seed := range seeds {
			_, _, rest, err := routeOf(resolve(o.path, seed, 0))
			if err != nil {
				return err
			}
			layer, ok := layerOf[rest]
			if !ok || seen[layer] {
				continue
			}
			for i := 0; i < 10; i++ {
				if err := rp.do(request{op: o.name, seed: seed, path: resolve(o.path, seed, 0)}, "probe.request"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// serverMeanUS is the mean server-side handler time over study routes in
// a /metrics delta, in microseconds.
func serverMeanUS(p promSample) float64 {
	var n, sum float64
	for route, cs := range p.routeDurations() {
		if strings.HasPrefix(route, "/v1/studies/") {
			n += cs[0]
			sum += cs[1]
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / n * 1e6
}

// studyRequests counts study-route requests in a /metrics delta.
func studyRequests(p promSample) float64 {
	var n float64
	for route, cs := range p.routeDurations() {
		if strings.HasPrefix(route, "/v1/studies/") {
			n += cs[0]
		}
	}
	return n
}

// spanStats groups span durations by name, in microseconds.
type spanStats map[string][]float64

func collect(spans []span) spanStats {
	out := make(spanStats)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}

func (st spanStats) meanUS(name string) float64 { return mean(st[name]) }

// stageMetricName maps a replica stage to its metric name: "synth.ms",
// "nlp.expand_ms".
func stageMetricName(stage string) string {
	if strings.Contains(stage, ".") {
		return stage + "_ms"
	}
	return stage + ".ms"
}

// layerMetrics computes every per-layer metric from the spans and the
// scrapes, runs the two additivity checks, and notes their outcome.
func layerMetrics(spans []span, tl *traceLoad, rp *replayer, replicas []*replicaResult, res *result) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) {
		// A ratio with an empty base has no value; JSON has no NaN.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.note("%s has no samples on this workload and reads 0", name)
			v = 0
		}
		m[name] = metric{v, unit}
	}

	// Build replica.
	var runNS, stageSum float64
	var gaps []float64 // per seed: stage self times over pipeline.Run's wall time, minus 1
	for i, stage := range replicaStages {
		var ms, alloc []float64
		for _, r := range replicas {
			ms = append(ms, float64(r.stageNS[i])/1e6)
			alloc = append(alloc, r.allocBytes[i]/(1<<20))
		}
		set(stageMetricName(stage), mean(ms), "ms")
		set(stage+".alloc_mb", mean(alloc), "MiB")
	}
	var self, defects, acc, phrases []float64
	var bytes, events float64
	for _, r := range replicas {
		var sum int64
		for _, ns := range r.stageNS[:pipelineStages] {
			sum += ns
		}
		stageSum += float64(sum)
		runNS += float64(r.runNS)
		gaps = append(gaps, float64(sum)/float64(r.runNS)-1)
		self = append(self, float64(r.runNS-sum)/1e6)
		defects = append(defects, r.defectRate)
		acc = append(acc, r.tagAcc)
		phrases = append(phrases, float64(r.phrases))
		bytes += float64(r.bytes)
		events += float64(r.events)
	}
	set("pipeline.self_ms", mean(self), "ms")
	set("parse.defect_ratio", mean(defects), "ratio")
	set("nlp.tag_accuracy", mean(acc), "ratio")
	set("nlp.dictionary_phrases", mean(phrases), "count")
	set("snapshot2.bytes_per_event", bytes/events, "B/event")

	// Server side, from the scrapes and the client samples of the server
	// phase.
	handler := serverMeanUS(tl.phaseProm)
	set("serve.handler_us", handler, "us")
	set("http.transport_us", mean(latenciesMS(tl.phase))*1e3-handler, "us")
	hits, misses := tl.phaseProm["avserve_cache_hits_total"], tl.phaseProm["avserve_cache_misses_total"]
	set("serve.cache_hit_ratio", hits/(hits+misses), "ratio")
	set("serve.builds", tl.end["avserve_cache_builds_total"], "count")
	set("serve.evictions", tl.end["avserve_cache_evictions_total"], "count")
	set("snapshot2.opens_per_request", tl.phaseProm["avserve_snapshot2_loads_total"]/studyRequests(tl.phaseProm), "ratio")
	var wire []float64
	for _, s := range tl.phase {
		wire = append(wire, float64(s.bytes))
	}
	set("serve.response_bytes", mean(wire), "B")
	resident := tl.end["avserve_cache_resident"]
	set("serve.rss_per_study_mb", (tl.rssEnd-tl.rssStart)/resident, "MiB")

	// In-process replay and probes.
	calls := collect(spans)
	var hit, miss []float64
	for _, s := range spans {
		if s.Name == "serve.cache_get" {
			if s.Note == "hit" {
				hit = append(hit, float64(s.dur())/1e3)
			} else {
				miss = append(miss, float64(s.dur())/1e3)
			}
		}
	}
	set("serve.cache_get_hit_us", mean(hit), "us")
	set("serve.cache_get_miss_us", mean(miss), "us")
	set("snapshot2.open_us", calls.meanUS("probe.snapshot2.open"), "us")
	set("core.materialize_ms", calls.meanUS("probe.core.materialize")/1e3, "ms")
	set("core.materializations_per_miss", float64(rp.materializations)/float64(rp.misses), "ratio")
	set("query.select_us", calls.meanUS("query.select"), "us")
	set("query.rows_us", calls.meanUS("query.events")-calls.meanUS("query.select"), "us")
	set("query.rows_per_response", mean(rp.rows), "count")
	set("query.groupby_us", calls.meanUS("query.groupby"), "us")
	set("query.reliability_us", calls.meanUS("query.reliability"), "us")
	set("query.accidents_us", calls.meanUS("query.accidents"), "us")
	set("report.table_us", calls.meanUS("report.table"), "us")
	set("serve.encode_us", calls.meanUS("serve.encode"), "us")
	set("serve.http_us", calls.meanUS("serve.http"), "us")

	checkRequestAdditivity(spans, tl.seqProm, res)
	if runNS > 0 {
		// The median over seeds, not the ratio of the totals: on a box whose
		// speed drifts, one seed built during a slow spell would otherwise
		// decide the check.
		gap := median(gaps)
		verdict := "PASS"
		if math.Abs(gap) > buildAdditivity {
			verdict = "FAIL"
		}
		res.note("additivity %s: build stage self times vs pipeline.Run wall, median over %d seeds %+.1f%% (tolerance %.0f%%); totals %.1f / %.1f ms",
			verdict, len(replicas), 100*gap, 100*buildAdditivity, stageSum/1e6, runNS/1e6)
	}
	return m
}

// checkRequestAdditivity compares, per route, the mean over replayed
// requests of the summed self times under each request root with the
// server's handler mean over the same requests sent one at a time.
func checkRequestAdditivity(spans []span, seqProm promSample, res *result) {
	selfs := selfTimes(spans)
	total := make(map[int64]int64) // root id -> summed self time of the request
	route := make(map[int64]string)
	for _, s := range spans {
		if s.Name == "replay.request" {
			total[s.ID] += selfs[s.ID]
			route[s.ID] = s.Note
		}
	}
	for _, s := range spans {
		if _, ok := total[s.Parent]; ok {
			total[s.Parent] += selfs[s.ID]
		}
	}
	sums := make(map[string][]float64)
	for id, t := range total {
		sums[route[id]] = append(sums[route[id]], float64(t)/1e3)
	}
	server := seqProm.routeDurations()
	routes := make([]string, 0, len(sums))
	for r := range sums {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	verdict := "PASS"
	var parts []string
	for _, r := range routes {
		cs := server[r]
		if cs[0] == 0 {
			continue
		}
		srv := cs[1] / cs[0] * 1e6
		gap := mean(sums[r])/srv - 1
		if math.Abs(gap) > requestAdditivity {
			verdict = "FAIL"
		}
		parts = append(parts, fmt.Sprintf("%s %.0f/%.0f us (%+.0f%%)",
			strings.TrimPrefix(r, "/v1/studies/{seed}/"), mean(sums[r]), srv, 100*gap))
	}
	res.note("additivity %s: replayed self times vs server handler mean per route, tolerance %.0f%%: %s",
		verdict, 100*requestAdditivity, strings.Join(parts, "; "))
}
