package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfda/internal/query"
	"avfda/internal/snapshot2"
)

// countMappingsIn counts this process's live mappings of snapshot files
// in dir (linux-only), so mappings other tests leave to the finalizer do
// not count.
func countMappingsIn(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatalf("read /proc/self/maps: %v", err)
	}
	return strings.Count(string(maps), dir+string(os.PathSeparator))
}

// writeSeeds persists the fixture study as v2 snapshots for seeds 1..n.
func writeSeeds(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	db := testDB(t)
	for seed := int64(1); seed <= int64(n); seed++ {
		if _, err := snapshot2.WriteSeed(dir, seed, db); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// churn sends workers×iterations requests from paths (rotated per worker)
// over seeds 1..seeds to s; every fourth request is conditional on etag
// and must answer 304. It fails the test on any other status.
func churn(t *testing.T, s *Server, seeds, workers, iterations int, etag string, paths []string) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				seed := (g*7+i*3)%seeds + 1
				path := fmt.Sprintf("/v1/studies/%d/%s", seed, paths[(g+i)%len(paths)])
				want, hdr := http.StatusOK, map[string]string(nil)
				if i%4 == 3 {
					want, hdr = http.StatusNotModified, map[string]string{"If-None-Match": `"` + etag + `"`}
				}
				if rec := getFull(t, s, path, hdr); rec.Code != want {
					errs <- fmt.Errorf("GET %s: code %d, want %d (%s)", path, rec.Code, want, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerChurnReleasesMappings churns a capacity-1 Server over eight
// mapped seeds with concurrent requests, 304s among them. Requests hold
// their study until they return, so once traffic stops every evicted
// mapping has been closed by its last release: the live mappings are the
// resident study's alone, with no collection run. It also pins that no
// served route decodes a database: listings, accident pages, group-bys
// read the columns, and reliability and the paper tables are stored
// answers, so the materialization counter stays 0 with table requests.
func TestServerChurnReleasesMappings(t *testing.T) {
	const seeds = 8
	var builds atomic.Int64
	dir := writeSeeds(t, seeds)
	s, err := New(Config{Build: testBuilder(t, &builds, 0), CacheSize: 1, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	etag := getFull(t, s, "/v1/studies/1/accidents", nil).Header().Get("ETag")
	if len(etag) < 2 {
		t.Fatalf("no ETag on a mapped study: %q", etag)
	}
	etag = etag[1 : len(etag)-1]

	churn(t, s, seeds, 8, 40, etag, []string{
		"disengagements?limit=3", "accidents?mfr=waymo", "metrics/reliability",
		"groupby?by=tag", "accidents", "disengagements?mfr=bosch&from=2015-01",
	})
	stats := s.CacheStats()
	if stats.Evictions == 0 || stats.Snapshot2Loads < 2 {
		t.Fatalf("stats = %+v: the test never churned", stats)
	}
	if stats.StudyMaterializations != 0 {
		t.Errorf("materializations = %d without a table request, want 0", stats.StudyMaterializations)
	}

	churn(t, s, seeds, 4, 20, etag, []string{"tables/i", "metrics/reliability", "tables/vii", "accidents"})
	stats = s.CacheStats()
	if stats.StudyMaterializations != 0 {
		t.Errorf("materializations = %d with table requests, want 0 (tables are stored answers)", stats.StudyMaterializations)
	}
	if _, body := get(t, s, "/metrics"); !strings.Contains(body, "avserve_study_materializations_total 0\n") {
		t.Errorf("/metrics does not report 0 materializations after table churn:\n%s", body)
	}
	if builds.Load() != 0 {
		t.Errorf("pipeline builds = %d, want 0", builds.Load())
	}
	if got, want := stats.SnapshotReleases, stats.Snapshot2Loads-int64(stats.Resident); got != want {
		t.Errorf("releases = %d, want loads - resident = %d (stats %+v)", got, want, stats)
	}
	if runtime.GOOS != "linux" {
		t.Skip("mapping-count check needs /proc/self/maps")
	}
	if n := countMappingsIn(t, dir); n > stats.Resident {
		t.Errorf("live .avsnap2 mappings = %d after churn, want <= resident (%d)", n, stats.Resident)
	}
}

// TestGetStudyReadableAfterEviction: a study handed out by Get is pinned,
// so it answers every query after eviction, and the cache leaves its
// mapping to the finalizer.
func TestGetStudyReadableAfterEviction(t *testing.T) {
	c, err := NewSnapshotCache(testBuilder(t, nil, 0), 1, writeSeeds(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := c.Get(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	checkStudyReadable(t, first)
	if got := c.Stats().SnapshotReleases; got != 0 {
		t.Errorf("releases = %d, want 0: a pinned study's mapping was closed", got)
	}
}

// checkStudyReadable queries every surface of a fixture study.
func checkStudyReadable(t *testing.T, study *Study) {
	t.Helper()
	page, err := study.Engine.Events(query.Filter{}, query.Page{Limit: 10})
	if err != nil || page.Total != 3 || page.Events[2].Cause != "crash" {
		t.Errorf("events: %+v, %v", page, err)
	}
	acc, err := study.Engine.Accidents(query.Filter{}, query.Page{})
	if err != nil || acc.Total != 2 || acc.Accidents[1].Location != "First St" {
		t.Errorf("accidents: %+v, %v", acc, err)
	}
	if rel, err := study.Engine.Reliability(); err != nil || len(rel) != 2 {
		t.Errorf("reliability: %+v, %v", rel, err)
	}
	if db, err := study.Database(); err != nil || len(db.Events) != 3 {
		t.Errorf("database: %v", err)
	}
}

// TestHeldStudyClosedOnLastRelease: eviction leaves a held study readable,
// and the release that drops its last hold closes the mapping.
func TestHeldStudyClosedOnLastRelease(t *testing.T) {
	dir := writeSeeds(t, 2)
	c, err := NewSnapshotCache(testBuilder(t, nil, 0), 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := c.hold(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.hold(ctx, 1)
	if err != nil || again != first {
		t.Fatalf("second hold: %v, same study %v", err, again == first)
	}
	second, err := c.hold(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkStudyReadable(t, first)
	c.release(first)
	checkStudyReadable(t, first)
	if got := c.Stats().SnapshotReleases; got != 0 {
		t.Fatalf("releases = %d with a hold left, want 0", got)
	}
	c.release(again)
	if got := c.Stats().SnapshotReleases; got != 1 {
		t.Errorf("releases = %d after the last release, want 1", got)
	}
	c.release(second)
	if got := c.Stats().SnapshotReleases; got != 1 {
		t.Errorf("releases = %d after releasing the resident study, want 1", got)
	}
	if runtime.GOOS == "linux" {
		if n := countMappingsIn(t, dir); n != 1 {
			t.Errorf("live .avsnap2 mappings = %d, want 1 (the resident study)", n)
		}
	}
}

// TestAbandonedHoldIsDropped: a hold whose context expires before the
// study is ready leaves no hold behind on the published study.
func TestAbandonedHoldIsDropped(t *testing.T) {
	gate := make(chan struct{})
	inner := testBuilder(t, nil, 0)
	c, err := NewSnapshotCache(func(seed int64) (*Study, error) {
		<-gate
		return inner(seed)
	}, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.hold(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hold = %v, want deadline exceeded", err)
	}
	close(gate)
	for c.Stats().Resident == 0 {
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	holds := c.entries[1].Value.(*cacheEntry).study.users.holds
	c.mu.Unlock()
	if holds != 0 {
		t.Errorf("holds = %d after the only waiter gave up, want 0", holds)
	}
}
