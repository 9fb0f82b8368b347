package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"avfda/internal/snapshot2"
)

// errPeerMiss reports that every configured peer answered 404 for the
// seed: nobody holds the snapshot yet, so the caller should rebuild.
var errPeerMiss = errors.New("serve: no peer holds the snapshot")

const (
	// defaultFetchTimeout bounds one peer snapshot probe end to end
	// (connect, headers, and full body). Snapshots are tens of megabytes
	// at most, so ten seconds of intra-cluster transfer is generous.
	defaultFetchTimeout = 10 * time.Second
	// maxFetchBytes caps how much of a peer response is buffered before
	// validation, so a misbehaving peer cannot balloon this process.
	maxFetchBytes = 1 << 30
)

// snapshotFetcher pulls v2 snapshots from peer avserve backends over
// their /v1/snapshots/{seed} endpoint. Fetched bytes are re-verified
// end to end (magic, version, CRC-32C, structural bounds, and the stored
// answers against a render of the columns) before they are landed in the
// snapshot directory: a peer is a transport, never a trust root.
type snapshotFetcher struct {
	peers  []string
	client *http.Client
}

// newSnapshotFetcher builds a fetcher over the given peer base URLs.
func newSnapshotFetcher(peers []string, timeout time.Duration) *snapshotFetcher {
	if timeout <= 0 {
		timeout = defaultFetchTimeout
	}
	cleaned := make([]string, 0, len(peers))
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			cleaned = append(cleaned, p)
		}
	}
	return &snapshotFetcher{
		peers: cleaned,
		// The probe runs inside the cache's singleflight, which outlives
		// any one request on purpose (like the pipeline build it replaces),
		// so the client's hard timeout is the whole cancellation story.
		client: &http.Client{Timeout: timeout},
	}
}

// fetch asks each peer in order for seed's snapshot and lands the first
// verified copy in dir. It returns errPeerMiss when every peer answered
// 404; any other error is the last failure seen.
func (f *snapshotFetcher) fetch(dir string, seed int64) error {
	err := error(errPeerMiss)
	for _, peer := range f.peers {
		switch e := f.fetchOne(peer, dir, seed); {
		case e == nil:
			return nil
		case errors.Is(e, errPeerMiss):
			// Try the next peer; keep a prior hard error if there was one.
		default:
			err = e
		}
	}
	return err
}

// fetchOne probes a single peer and, on a verified 200, installs the
// snapshot atomically into dir.
func (f *snapshotFetcher) fetchOne(peer, dir string, seed int64) error {
	resp, err := f.client.Get(fmt.Sprintf("%s/v1/snapshots/%d", peer, seed))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return errPeerMiss
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("serve: peer %s: snapshot %d: unexpected status %d", peer, seed, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes+1))
	if err != nil {
		return fmt.Errorf("serve: peer %s: snapshot %d: %w", peer, seed, err)
	}
	if len(data) > maxFetchBytes {
		return fmt.Errorf("serve: peer %s: snapshot %d exceeds %d-byte cap", peer, seed, maxFetchBytes)
	}
	// Re-verify before anything touches disk: NewView walks the full
	// format (magic, version, payload length, CRC-32C, section bounds),
	// so a truncated or corrupted transfer is rejected here with a typed
	// snapshot2 error rather than being discovered at query time, and
	// CheckAnswers re-renders the stored answers from the file's own
	// columns, so a valid-CRC file whose tables disagree with its rows is
	// never served.
	v, err := snapshot2.NewView(data)
	if err == nil {
		err = v.CheckAnswers()
	}
	if err != nil {
		return fmt.Errorf("serve: peer %s: snapshot %d invalid: %w", peer, seed, err)
	}
	return snapshot2.WriteSeedBytes(dir, seed, data)
}
