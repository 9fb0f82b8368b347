package serve

import (
	"container/list"
	"context"
	"errors"
	"io/fs"
	"sync"
	"time"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/snapshot2"
)

// Study is one cached, fully built study: the consolidated failure
// database plus its query engine. Both are immutable after construction,
// so a cached study is served to any number of concurrent requests.
type Study struct {
	// DB is the in-heap database for freshly built studies; it is nil
	// for studies served from a mapped v2 snapshot, whose engine
	// materializes tables lazily. Callers that need the database should go
	// through Database.
	DB     *core.DB
	Engine *query.Engine
	// ETag is the study's content fingerprint — the CRC-32C of its v2
	// snapshot payload, lower-case hex, no quotes — set when the study was
	// mapped from a v2 snapshot or written through as one. Deterministic
	// encoding makes it identical on every node serving the same seed, so
	// the HTTP layer derives ETag headers from it. Empty when no v2
	// snapshot exists for the study (snapshotless builds): those responses
	// simply carry no validator.
	ETag string
}

// Database returns the study's failure database, materializing it from
// the engine's backing snapshot when the study was loaded as a mapped v2
// view (whole-table consumers — the report tables — pay that cost once).
func (s *Study) Database() (*core.DB, error) {
	if s.DB != nil {
		return s.DB, nil
	}
	return s.Engine.Database()
}

// BuildFunc builds the study for one seed. Builds are expensive (a full
// Stage I-IV pipeline run), which is exactly why the cache exists.
type BuildFunc func(seed int64) (*Study, error)

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// Hits counts Gets answered from a resident study.
	Hits int64
	// Misses counts Gets that found no resident study (whether they
	// started a build or joined one already in flight).
	Misses int64
	// Builds counts pipeline builds started (each coalesces any number of
	// concurrent Gets for the same seed). A Get served from the snapshot
	// tier does not count as a build.
	Builds int64
	// Evictions counts studies dropped to respect the capacity.
	Evictions int64
	// Snapshot2Loads counts misses satisfied by mapping a v2 columnar
	// snapshot — the cheapest possible path, no deserialization at all.
	Snapshot2Loads int64
	// Snapshot2Writes counts v2 snapshots written through after a
	// successful pipeline build.
	Snapshot2Writes int64
	// Snapshot2Rejects counts v2 snapshot files that existed but were
	// refused (version mismatch, checksum failure, truncation, structural
	// corruption) and fell through to a peer fetch or a rebuild.
	Snapshot2Rejects int64
	// SnapshotFetches counts misses satisfied by pulling the seed's v2
	// snapshot from a peer (CRC re-verified on receipt) instead of paying
	// a pipeline rebuild.
	SnapshotFetches int64
	// SnapshotFetchMisses counts peer probes that answered 404 — the peer
	// simply doesn't hold the seed either; not an error.
	SnapshotFetchMisses int64
	// SnapshotFetchErrors counts peer probes that failed (transport error,
	// non-200/404 status, or a fetched file that flunked CRC/structure
	// validation on receipt).
	SnapshotFetchErrors int64
	// Resident is the number of studies currently cached.
	Resident int
}

// Cache is a seed-keyed LRU of built studies with an optional second tier:
// a directory of persisted v2 study snapshots. A miss walks the tiers from
// cheapest to dearest — map the seed's v2 columnar snapshot (microseconds,
// zero deserialization), pull it from a peer, run the pipeline (hundreds
// of milliseconds) — and a successful build is written through as v2 so
// the next cold process or post-eviction Get warm-starts. Corrupt or
// stale-version snapshots are never trusted: they fail snapshot2's typed
// checksum/version/format checks, count as rejects, and are overwritten by
// the rebuild's write-through.
//
// Concurrent Gets for an absent seed are coalesced singleflight-style:
// exactly one load-or-build runs and every waiter receives its result. A
// caller whose context expires stops waiting, but the work keeps running
// and populates the cache for later requests — abandoning a half-done
// pipeline run would only force the next caller to pay for it again.
type Cache struct {
	build   BuildFunc
	cap     int
	snapDir string           // "" disables the snapshot tier
	fetcher *snapshotFetcher // nil disables the peer pull-through tier

	mu      sync.Mutex
	order   *list.List              // of *cacheEntry, most recently used first
	entries map[int64]*list.Element // resident studies
	flights map[int64]*flight       // in-progress builds
	stats   CacheStats
}

// cacheEntry is one resident study.
type cacheEntry struct {
	seed  int64
	study *Study
}

// flight is one in-progress build; study/err are set before done closes.
type flight struct {
	done  chan struct{}
	study *Study
	err   error
}

// NewSnapshotCache creates a cache holding at most capacity studies
// (minimum 1) whose misses go through the v2 snapshot directory before the
// pipeline build. An empty dir disables snapshots entirely.
func NewSnapshotCache(build BuildFunc, capacity int, dir string) (*Cache, error) {
	if build == nil {
		return nil, errors.New("serve: nil build function")
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		build:   build,
		cap:     capacity,
		snapDir: dir,
		order:   list.New(),
		entries: make(map[int64]*list.Element),
		flights: make(map[int64]*flight),
	}, nil
}

// SetSnapshotPeers enables the peer pull-through tier: a miss that finds
// no local snapshot asks each peer base URL in order for the seed's v2
// snapshot before falling back to a pipeline build. It requires a
// snapshot directory (fetched files are landed in snapDir and then mapped).
// timeout bounds each peer probe; zero picks a sane default. Call before
// serving traffic; the peer list is fixed afterwards.
func (c *Cache) SetSnapshotPeers(peers []string, timeout time.Duration) error {
	if len(peers) == 0 {
		return nil
	}
	if c.snapDir == "" {
		return errors.New("serve: snapshot peers require a snapshot directory")
	}
	c.fetcher = newSnapshotFetcher(peers, timeout)
	return nil
}

// Get returns the study for seed, building it on first use. It blocks
// until the study is ready or ctx expires; on expiry the error is the
// context's and the background build continues.
func (c *Cache) Get(ctx context.Context, seed int64) (*Study, error) {
	c.mu.Lock()
	if el, ok := c.entries[seed]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		study := el.Value.(*cacheEntry).study
		c.mu.Unlock()
		return study, nil
	}
	c.stats.Misses++
	fl, inFlight := c.flights[seed]
	if !inFlight {
		fl = &flight{done: make(chan struct{})}
		c.flights[seed] = fl
		go c.run(seed, fl)
	}
	c.mu.Unlock()

	select {
	case <-fl.done:
		return fl.study, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run executes one load-or-build and publishes its result.
func (c *Cache) run(seed int64, fl *flight) {
	study, err := c.acquire(seed)
	fl.study, fl.err = study, err

	c.mu.Lock()
	delete(c.flights, seed)
	if err == nil {
		el := c.order.PushFront(&cacheEntry{seed: seed, study: study})
		c.entries[seed] = el
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).seed)
			c.stats.Evictions++
		}
	}
	c.mu.Unlock()
	close(fl.done)
}

// acquire produces the study for one coalesced miss: v2 snapshot tier,
// then peer fetch, then the pipeline build, with write-through after a
// successful build.
func (c *Cache) acquire(seed int64) (*Study, error) {
	if c.snapDir != "" {
		study, err := c.loadSnapshot2(seed)
		switch {
		case err == nil:
			c.bump(&c.stats.Snapshot2Loads)
			return study, nil
		case errors.Is(err, fs.ErrNotExist):
			// Plain tier miss: nothing persisted for this seed yet.
		default:
			// Present but unusable (bad checksum, old version, truncated,
			// structurally corrupt): never trust it, fetch or rebuild.
			c.bump(&c.stats.Snapshot2Rejects)
		}
		if study, ok := c.fetchFromPeer(seed); ok {
			return study, nil
		}
	}
	c.bump(&c.stats.Builds)
	study, err := c.build(seed)
	if err != nil {
		return nil, err
	}
	if c.snapDir != "" && study != nil && study.DB != nil {
		// Write-through replaces whatever was on disk (including a
		// just-rejected file) via an atomic rename; a write failure only
		// costs the next cold process a rebuild, so it is not fatal.
		if crc, err := snapshot2.WriteSeed(c.snapDir, seed, study.DB); err == nil {
			c.bump(&c.stats.Snapshot2Writes)
			// The write-through fixes the study's content fingerprint, so
			// the freshly built study can carry a validator too.
			study.ETag = etagFromCRC(crc)
		}
	}
	return study, nil
}

// fetchFromPeer is the pull-through tier: with peers configured, ask each
// in turn for the seed's v2 snapshot, land the verified bytes in snapDir,
// and serve them through the normal mapped path. A false return means the
// caller should fall through to the pipeline build — peers that miss or
// misbehave never block a rebuild, they only count against their stats.
func (c *Cache) fetchFromPeer(seed int64) (*Study, bool) {
	if c.fetcher == nil {
		return nil, false
	}
	switch err := c.fetcher.fetch(c.snapDir, seed); {
	case err == nil:
	case errors.Is(err, errPeerMiss):
		c.bump(&c.stats.SnapshotFetchMisses)
		return nil, false
	default:
		c.bump(&c.stats.SnapshotFetchErrors)
		return nil, false
	}
	study, err := c.loadSnapshot2(seed)
	if err != nil {
		// The bytes validated before landing, so this is a local problem
		// (disk full mid-install, concurrent tampering); rebuild.
		c.bump(&c.stats.SnapshotFetchErrors)
		return nil, false
	}
	c.bump(&c.stats.SnapshotFetches)
	return study, true
}

// loadSnapshot2 maps the v2 snapshot for seed and serves queries straight
// off the mapping: no deserialization, no DB materialization until an
// endpoint actually needs whole tables. The view is validated end-to-end
// at open, so a success here is as trustworthy as a fresh build.
//
// Release path: OpenSeed retains no file descriptor (the fd is closed as
// soon as the mapping exists), so an evicted study pins only its mapping.
// The mapping is torn down by the view's finalizer once the last request
// referencing the engine drops it — eviction under churn is bounded by
// cache capacity plus in-flight requests, never by how many seeds have
// ever been served. TestEvictionChurnMappedViews pins this.
func (c *Cache) loadSnapshot2(seed int64) (*Study, error) {
	v, err := snapshot2.OpenSeed(c.snapDir, seed)
	if err != nil {
		return nil, err
	}
	engine, err := query.NewFromSource(v, v.Database)
	if err != nil {
		v.Close()
		return nil, err
	}
	return &Study{Engine: engine, ETag: etagFromCRC(v.Checksum())}, nil
}

// bump increments one stats counter under the cache lock.
func (c *Cache) bump(counter *int64) {
	c.mu.Lock()
	*counter++
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = c.order.Len()
	return s
}
