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

// Study is one cached, fully built study: its query engine, which reads
// the study's v2 bytes. It is immutable after construction, so a cached
// study is served to any number of concurrent requests.
type Study struct {
	// DB is a database kept beside the engine. Only the benchmark's
	// builder (bench/) sets it, for its replay's Database calls; avserve's
	// builder and mapped studies leave it nil. It goes, with Database and
	// Cache.Get, once bench stops replaying.
	DB *core.DB
	// Engine answers every query through a snapshot2.View: over the heap
	// bytes New encodes a fresh build to, or over a mapped study's file.
	Engine *query.Engine
	// ETag is the study's content fingerprint — the CRC-32C of its v2
	// snapshot payload, lower-case hex, no quotes — set when the study was
	// mapped from a v2 snapshot or written through as one. Deterministic
	// encoding makes it identical on every node serving the same seed, so
	// the HTTP layer derives ETag headers from it. Empty when no v2
	// snapshot exists for the study (snapshotless builds): those responses
	// simply carry no validator.
	ETag string

	// view is the mapped snapshot a study loaded from v2 reads, the same
	// View its Engine reads; nil for a built study. The cache closes it
	// once the study is evicted and its last user is gone. Database
	// decodes the study from it at most once, calling decoded (which
	// counts StudyMaterializations) the first time. users and evicted are
	// guarded by Cache.mu.
	view    *snapshot2.View
	decode  sync.Once
	decoded func()
	users   users
	evicted bool
}

// users counts who may still read a study's mapping: requests holding it
// (taken by Cache.hold, dropped by Cache.release) and whether a Cache.Get
// caller has it. A Get caller never says when it is done, so a study it
// was handed is pinned: the cache never closes its mapping, and the
// mapping's finalizer releases it once the study is unreachable.
type users struct {
	holds  int
	pinned bool
}

// add records one more user: a pin for Get, a hold otherwise.
func (u *users) add(pin bool) {
	if pin {
		u.pinned = true
	} else {
		u.holds++
	}
}

// closable reports whether nothing can read the study's mapping any more:
// it is evicted (so no new user can find it), unpinned and unheld.
func (s *Study) closable() bool {
	return s.view != nil && s.evicted && !s.users.pinned && s.users.holds == 0
}

// Database returns the study's failure database: DB when the builder
// kept it, else a mapped study's, decoded from its View on first use and
// counted once as a StudyMaterialization. No served route needs it (the
// paper tables are stored answers); only the benchmark's replay (bench/)
// and tests call it, and it goes with DB once bench stops replaying. A
// study built without its database and not mapped, as avserve builds
// every study, has none to return.
func (s *Study) Database() (*core.DB, error) {
	if s.DB != nil {
		return s.DB, nil
	}
	if s.view == nil {
		return nil, errors.New("serve: study was built without its database and is not mapped")
	}
	s.decode.Do(s.decoded)
	return s.view.Database()
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
	// BuildFailures counts builds that returned an error. Failed builds
	// are not cached, so the next Get for the seed builds again.
	BuildFailures int64
	// Evictions counts studies dropped to respect the capacity.
	Evictions int64
	// Snapshot2Loads counts misses satisfied by mapping a v2 columnar
	// snapshot — the cheapest possible path, no deserialization at all.
	Snapshot2Loads int64
	// Snapshot2Writes counts v2 snapshots written through after a
	// successful pipeline build.
	Snapshot2Writes int64
	// Snapshot2WriteErrors counts write-throughs that failed. The study is
	// served anyway, without an ETag; the next cold process rebuilds it.
	Snapshot2WriteErrors int64
	// Snapshot2Rejects counts v2 snapshot files that existed but were
	// refused (version mismatch, checksum failure, truncation, structural
	// corruption) and fell through to a peer fetch or a rebuild.
	Snapshot2Rejects int64
	// Snapshot2OpenErrors counts v2 snapshot files that could not be read
	// for a reason other than their absence or their content (permissions,
	// an I/O error, a directory in the file's place). They fall through
	// like rejects, but point at the disk, not at the file.
	Snapshot2OpenErrors int64
	// SnapshotFetches counts misses satisfied by pulling the seed's v2
	// snapshot from a peer (CRC re-verified on receipt) instead of paying
	// a pipeline rebuild.
	SnapshotFetches int64
	// SnapshotFetchMisses counts peer probes that answered 404 — the peer
	// simply doesn't hold the seed either; not an error.
	SnapshotFetchMisses int64
	// SnapshotFetchErrors counts peer probes that failed (transport error,
	// non-200/404 status, or a fetched file that flunked CRC/structure
	// validation or whose stored answers differ from its columns).
	SnapshotFetchErrors int64
	// StudyMaterializations counts whole-database decodes of mapped
	// studies (Study.Database). No served route makes one, so a server
	// reads 0 here; a Cache.Get caller may.
	StudyMaterializations int64
	// SnapshotReleases counts mappings of evicted studies closed when
	// their last request released them.
	SnapshotReleases int64
	// Resident is the number of studies currently cached.
	Resident int
}

// Cache is a seed-keyed LRU of built studies with an optional second tier:
// a directory of persisted v2 study snapshots. A miss walks the tiers from
// cheapest to dearest — map the seed's v2 columnar snapshot (microseconds,
// zero deserialization), pull it from a peer, run the pipeline (tens of
// milliseconds) — and a successful build is written through as v2 so
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

	mu      sync.Mutex              // taken only through locked; guards the fields below
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
// users counts its waiters until the result is published (under Cache.mu),
// when they pass to the study.
type flight struct {
	done      chan struct{}
	study     *Study
	err       error
	users     users
	published bool
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
// context's and the background build continues. The study is pinned (see
// users): it stays readable however long the caller keeps it. Servers
// take studies through hold instead; only the benchmark's replay (bench/)
// and tests call Get, and it goes with Study.DB once bench stops
// replaying.
func (c *Cache) Get(ctx context.Context, seed int64) (*Study, error) {
	return c.get(ctx, seed, true)
}

// hold is Get for a caller that says when it is done: the study is held
// until release, and an evicted mapped study is closed by its last
// release instead of waiting for a finalizer.
func (c *Cache) hold(ctx context.Context, seed int64) (*Study, error) {
	return c.get(ctx, seed, false)
}

// get is Get (pin) or hold.
func (c *Cache) get(ctx context.Context, seed int64, pin bool) (*Study, error) {
	var (
		study *Study
		fl    *flight
		start bool
	)
	c.locked(func() {
		if el, ok := c.entries[seed]; ok {
			c.order.MoveToFront(el)
			c.stats.Hits++
			study = el.Value.(*cacheEntry).study
			study.users.add(pin)
			return
		}
		c.stats.Misses++
		if fl = c.flights[seed]; fl == nil {
			fl = &flight{done: make(chan struct{})}
			c.flights[seed] = fl
			start = true
		}
		fl.users.add(pin)
	})
	if study != nil {
		return study, nil
	}
	if start {
		go c.run(seed, fl)
	}

	select {
	case <-fl.done:
		return fl.study, fl.err
	case <-ctx.Done():
		if !pin {
			var published bool
			c.locked(func() {
				if published = fl.published; !published {
					fl.users.holds--
				}
			})
			if published && fl.err == nil {
				c.release(fl.study)
			}
		}
		return nil, ctx.Err()
	}
}

// release drops one hold taken by hold. The last release of an evicted
// mapped study closes its mapping.
func (c *Cache) release(study *Study) {
	var closing bool
	c.locked(func() {
		study.users.holds--
		if closing = study.closable(); closing {
			c.stats.SnapshotReleases++
		}
	})
	if closing {
		study.view.Close()
	}
}

// run executes one load-or-build and publishes its result.
func (c *Cache) run(seed int64, fl *flight) {
	study, err := c.acquire(seed)
	fl.study, fl.err = study, err

	var closing []*Study
	c.locked(func() {
		delete(c.flights, seed)
		fl.published = true
		if err != nil {
			return
		}
		study.users.holds += fl.users.holds
		study.users.pinned = study.users.pinned || fl.users.pinned
		el := c.order.PushFront(&cacheEntry{seed: seed, study: study})
		c.entries[seed] = el
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			entry := oldest.Value.(*cacheEntry)
			delete(c.entries, entry.seed)
			c.stats.Evictions++
			entry.study.evicted = true
			if entry.study.closable() {
				closing = append(closing, entry.study)
				c.stats.SnapshotReleases++
			}
		}
	})
	// Requests still holding an evicted study finish with it; a mapping
	// nobody holds is closed before the waiters wake, so no request that
	// caused an eviction returns with the unmap pending.
	for _, old := range closing {
		old.view.Close()
	}
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
		case isSnapshotReject(err):
			// Present but unusable (bad checksum, old version, truncated,
			// structurally corrupt): never trust it, fetch or rebuild.
			c.bump(&c.stats.Snapshot2Rejects)
		default:
			// Unreadable: the file's content was never judged.
			c.bump(&c.stats.Snapshot2OpenErrors)
		}
		if study, ok := c.fetchFromPeer(seed); ok {
			return study, nil
		}
	}
	c.bump(&c.stats.Builds)
	study, err := c.build(seed)
	if err != nil {
		c.bump(&c.stats.BuildFailures)
		return nil, err
	}
	if c.snapDir != "" && study != nil && study.Engine != nil {
		// Write-through installs the bytes the engine already encoded,
		// replacing whatever was on disk (including a just-rejected file)
		// via an atomic rename; a write failure only costs the next cold
		// process a rebuild, so it is counted but not fatal.
		crc, err := study.Engine.WriteSeed(c.snapDir, seed)
		if err != nil {
			c.bump(&c.stats.Snapshot2WriteErrors)
			return study, nil
		}
		c.bump(&c.stats.Snapshot2Writes)
		// The write-through fixes the study's content fingerprint, so the
		// freshly built study can carry a validator too.
		study.ETag = etagFromCRC(crc)
	}
	return study, nil
}

// isSnapshotReject reports whether err is snapshot2's verdict on a file's
// content, as opposed to a failure to read it.
func isSnapshotReject(err error) bool {
	var fe *snapshot2.FormatError
	var ve *snapshot2.VersionError
	var ce *snapshot2.ChecksumError
	return errors.As(err, &fe) || errors.As(err, &ve) || errors.As(err, &ce)
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
// off the mapping through the same engine a fresh build uses: no
// deserialization, and no DB materialization unless a Cache.Get caller
// asks for Study.Database. The view is validated end-to-end at open, so a
// success here is as trustworthy as a fresh build.
//
// Listings, group counts and accident pages read the columns, and the
// reliability and table answers are stored bytes; only Study.Database
// decodes the whole database, counted as StudyMaterializations.
//
// Release path: OpenSeed retains no file descriptor (the fd is closed as
// soon as the mapping exists), so an evicted study pins only its mapping.
// Server requests hold the study while they run, and the release that
// leaves an evicted study unheld closes the mapping (SnapshotReleases), so
// live mappings are bounded by cache capacity plus in-flight requests,
// without waiting for a collection. A study handed out by Get is pinned
// and left to the mapping's finalizer, which stays as the backstop.
// TestEvictionChurnMappedViews and TestServerChurnReleasesMappings pin
// both paths.
func (c *Cache) loadSnapshot2(seed int64) (*Study, error) {
	v, err := snapshot2.OpenSeed(c.snapDir, seed)
	if err != nil {
		return nil, err
	}
	return &Study{Engine: query.NewFromView(v), ETag: etagFromCRC(v.Checksum()), view: v,
		decoded: func() { c.bump(&c.stats.StudyMaterializations) }}, nil
}

// locked runs f with c.mu held. It is the only place c.mu is taken, and
// the deferred unlock releases it on every path out of f, so no caller can
// leave the cache locked. f only reads and writes the cache's state: the
// waits, the build, the unmaps and the waiter wake-up run after it returns.
func (c *Cache) locked(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

// bump increments one stats counter under the cache lock.
func (c *Cache) bump(counter *int64) {
	c.locked(func() { *counter++ })
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() (s CacheStats) {
	c.locked(func() {
		s = c.stats
		s.Resident = c.order.Len()
	})
	return s
}
