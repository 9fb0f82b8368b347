package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"avfda/internal/snapshot2"
)

// TestPeerSnapshotFetch is the snapshot-distribution acceptance test: a
// backend that misses locally pulls the seed's v2 snapshot from a peer
// and serves it with zero pipeline builds — the warm-start path a
// restarted shard takes behind the proxy.
func TestPeerSnapshotFetch(t *testing.T) {
	var peerBuilds atomic.Int64
	peer := newSnapshotServer(t, &peerBuilds)
	peerSrv := httptest.NewServer(peer)
	defer peerSrv.Close()

	var builds atomic.Int64
	s, err := New(Config{
		Build:         testBuilder(t, &builds, 0),
		CacheSize:     2,
		SnapshotDir:   t.TempDir(),
		SnapshotPeers: []string{peerSrv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := getFull(t, s, "/v1/studies/1/disengagements?mfr=Waymo", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d (%s)", rec.Code, rec.Body.String())
	}
	if builds.Load() != 0 {
		t.Errorf("pipeline builds = %d, want 0 (peer fetch)", builds.Load())
	}
	stats := s.CacheStats()
	// The load is attributed to the fetch tier, not double-counted as a
	// local v2 load.
	if stats.SnapshotFetches != 1 || stats.Builds != 0 || stats.Snapshot2Loads != 0 {
		t.Errorf("stats = %+v, want SnapshotFetches 1 and nothing else", stats)
	}
	// The peer never built either: it was seeded from disk.
	if peerBuilds.Load() != 0 {
		t.Errorf("peer pipeline builds = %d, want 0", peerBuilds.Load())
	}
	// The fetched snapshot landed locally, so the next cold process over
	// the same directory doesn't even need the peer.
	if _, body := get(t, s, "/metrics"); !strings.Contains(body, "avserve_snapshot_fetches_total 1") {
		t.Errorf("/metrics missing fetch counter\n%s", body)
	}

	// And the fetched study is content-identical: same ETag as the peer's.
	peerRec := getFull(t, peer, "/v1/studies/1/disengagements?mfr=Waymo", nil)
	if got, want := rec.Header().Get("ETag"), peerRec.Header().Get("ETag"); got != want || got == "" {
		t.Errorf("fetched ETag = %q, peer ETag = %q: want identical non-empty", got, want)
	}
	if rec.Body.String() != peerRec.Body.String() {
		t.Error("fetched study body differs from the peer's")
	}
}

// TestPeerFetchMissFallsBack: a peer that doesn't hold the seed is a
// normal miss — the backend rebuilds and counts the probe as a miss, not
// an error.
func TestPeerFetchMissFallsBack(t *testing.T) {
	peer := newTestServer(t, nil, 0, 0) // no snapshot dir: always 404s
	peerSrv := httptest.NewServer(peer)
	defer peerSrv.Close()

	var builds atomic.Int64
	s, err := New(Config{
		Build:         testBuilder(t, &builds, 0),
		CacheSize:     2,
		SnapshotDir:   t.TempDir(),
		SnapshotPeers: []string{peerSrv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, s, "/v1/studies/5/disengagements"); code != http.StatusOK {
		t.Fatalf("code = %d (%s)", code, body)
	}
	if builds.Load() != 1 {
		t.Errorf("pipeline builds = %d, want 1", builds.Load())
	}
	stats := s.CacheStats()
	if stats.SnapshotFetchMisses != 1 || stats.SnapshotFetches != 0 || stats.SnapshotFetchErrors != 0 {
		t.Errorf("stats = %+v, want exactly one fetch miss", stats)
	}
}

// TestPeerFetchCorruptRejected: a peer serving garbage (or a truncated
// transfer) fails CRC re-verification before anything touches disk; the
// backend rebuilds and nothing poisoned the snapshot directory.
func TestPeerFetchCorruptRejected(t *testing.T) {
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write([]byte("AVSNAP2\x00 definitely not a valid snapshot"))
	}))
	defer evil.Close()

	dir := t.TempDir()
	var builds atomic.Int64
	s, err := New(Config{
		Build:         testBuilder(t, &builds, 0),
		CacheSize:     2,
		SnapshotDir:   dir,
		SnapshotPeers: []string{evil.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, s, "/v1/studies/3/disengagements"); code != http.StatusOK {
		t.Fatalf("code = %d (%s)", code, body)
	}
	if builds.Load() != 1 {
		t.Errorf("pipeline builds = %d, want 1 (corrupt fetch rejected)", builds.Load())
	}
	if stats := s.CacheStats(); stats.SnapshotFetchErrors != 1 || stats.SnapshotFetches != 0 {
		t.Errorf("stats = %+v, want exactly one fetch error", stats)
	}
}

// TestPeerFetchSecondPeerWins: the fetcher walks the peer list — a dead
// first peer doesn't mask a second peer that holds the seed.
func TestPeerFetchSecondPeerWins(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on
	peer := newSnapshotServer(t, nil)
	peerSrv := httptest.NewServer(peer)
	defer peerSrv.Close()

	var builds atomic.Int64
	s, err := New(Config{
		Build:         testBuilder(t, &builds, 0),
		CacheSize:     2,
		SnapshotDir:   t.TempDir(),
		SnapshotPeers: []string{dead.URL, peerSrv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, s, "/v1/studies/1/disengagements"); code != http.StatusOK {
		t.Fatalf("code = %d (%s)", code, body)
	}
	if builds.Load() != 0 {
		t.Errorf("pipeline builds = %d, want 0 (second peer held the seed)", builds.Load())
	}
	if stats := s.CacheStats(); stats.SnapshotFetches != 1 {
		t.Errorf("stats = %+v, want SnapshotFetches 1", stats)
	}
}

// TestSnapshotPeersRequireV2Tier: the pull-through tier lands v2 bytes in
// the snapshot directory, so configuring peers without one is a config
// error, not a silent no-op.
func TestSnapshotPeersRequireV2Tier(t *testing.T) {
	if _, err := New(Config{Build: testBuilder(t, nil, 0), SnapshotPeers: []string{"http://peer"}}); err == nil {
		t.Error("peers without a snapshot dir: want error")
	}
}

// TestFetcherInstallsAtomically: the landed file is a complete, valid
// snapshot (WriteSeedBytes goes through a temp file + rename), and a
// failed probe leaves nothing behind.
func TestFetcherInstallsAtomically(t *testing.T) {
	peer := newSnapshotServer(t, nil)
	peerSrv := httptest.NewServer(peer)
	defer peerSrv.Close()

	dir := t.TempDir()
	f := newSnapshotFetcher([]string{peerSrv.URL}, 0)
	if err := f.fetch(dir, 1); err != nil {
		t.Fatal(err)
	}
	v, err := snapshot2.OpenSeed(dir, 1)
	if err != nil {
		t.Fatalf("landed snapshot unreadable: %v", err)
	}
	v.Close()

	if err := f.fetch(dir, 42); !errors.Is(err, errPeerMiss) {
		t.Fatalf("absent seed: err = %v, want errPeerMiss", err)
	}
	if _, err := os.Stat(snapshot2.Path(dir, 42)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("miss left a file behind: stat err = %v", err)
	}
}

// TestPeerFetchStaleAnswersRejected: a peer serving a seed file whose Table
// IV body was edited, its CRC re-sealed, passes every structural check,
// but its stored answers no longer match a render of its columns. The
// fetch is refused before anything lands in the snapshot directory, and
// the backend builds the study itself.
func TestPeerFetchStaleAnswersRejected(t *testing.T) {
	honest, err := snapshot2.Encode(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Clone(honest)
	i := bytes.Index(edited, []byte("Table IV "))
	if i < 0 {
		t.Fatal("no Table IV body in the snapshot")
	}
	copy(edited[i:], "Table IX ")
	// Re-seal: the CRC-32C of the payload sits in header bytes 18..22
	// (see the snapshot2 package comment for the layout).
	binary.LittleEndian.PutUint32(edited[18:], crc32.Checksum(edited[22:], crc32.MakeTable(crc32.Castagnoli)))
	if _, err := snapshot2.NewView(edited); err != nil {
		t.Fatalf("edited file should pass structural validation: %v", err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(edited)
	}))
	defer peer.Close()

	dir := t.TempDir()
	var ae *snapshot2.AnswerError
	if err := newSnapshotFetcher([]string{peer.URL}, 0).fetch(dir, 1); !errors.As(err, &ae) {
		t.Fatalf("fetch err = %v, want a *snapshot2.AnswerError", err)
	}
	if _, err := os.Stat(snapshot2.Path(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused fetch left a file behind: stat err = %v", err)
	}

	var builds atomic.Int64
	s, err := New(Config{
		Build:         testBuilder(t, &builds, 0),
		CacheSize:     2,
		SnapshotDir:   dir,
		SnapshotPeers: []string{peer.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, s, "/v1/studies/1/tables/iv")
	if code != http.StatusOK || strings.Contains(body, "Table IX") {
		t.Fatalf("code = %d, body %q: want the locally built Table IV", code, body)
	}
	if builds.Load() != 1 {
		t.Errorf("pipeline builds = %d, want 1 (stale fetch refused)", builds.Load())
	}
	if stats := s.CacheStats(); stats.SnapshotFetchErrors != 1 || stats.SnapshotFetches != 0 {
		t.Errorf("stats = %+v, want exactly one fetch error", stats)
	}
	if landed, err := os.ReadFile(snapshot2.Path(dir, 1)); err == nil && bytes.Equal(landed, edited) {
		t.Error("the edited file landed in the snapshot directory")
	}
}
