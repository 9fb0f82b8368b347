package serve

import (
	"fmt"
	"net/http"
	"strings"
)

// HTTP caching for study responses.
//
// A study's v2 snapshot encoding is deterministic, so its CRC-32C payload
// checksum is a content address: every node that serves seed N computes
// the same checksum, whether it mapped a local snapshot, pulled one from
// a peer, or rebuilt from scratch and wrote through. That checksum is the
// entity tag — identical across the whole fleet, which is what makes
// validators work behind the consistent-hash proxy (a client's
// If-None-Match revalidates correctly no matter which backend answers).
//
// The tag is per representation: the gzip-encoded body is a different
// byte stream than the identity one, so the encoded representation's tag
// carries a "-gzip" suffix (mirroring how nginx degrades tags for
// on-the-fly compression, minus the weakening). Whether a response will
// be gzipped is decided up front from Accept-Encoding — every study
// endpoint emits compressible JSON or text — so the suffix is known
// before the 304 check runs.
//
// The gzip bytes also depend on the compressor level (gzip.go), which the
// tag does not name: a backend at another level sends other bytes under
// the same "-gzip" tag, and both decode to the identical identity body.
// If-None-Match uses weak comparison, which asks only for that equivalent
// content, and no study route serves ranges, the one use of strong
// comparison; so a fleet mid-upgrade still revalidates correctly.

// etagFromCRC renders a snapshot checksum as the study's entity-tag
// payload: fixed-width lower-case hex, no quotes.
func etagFromCRC(crc uint32) string { return fmt.Sprintf("%08x", crc) }

// cacheControl is sent with every response that carries a validator.
// Studies for a seed are deterministic but not formally immutable (a
// pipeline upgrade rebuilds them), so clients may reuse for five minutes
// and then revalidate — a 304 costs no query work.
const cacheControl = "public, max-age=300"

// conditional returns the study's entity tag for the representation the
// request negotiated, and whether the request's If-None-Match matches it
// — in which case the answer is a 304 and no query work runs. Studies
// without a snapshot-backed checksum carry no validator (tag "") and are
// always served in full.
func conditional(r *http.Request, study *Study) (tag string, notModified bool) {
	if study.ETag == "" {
		return "", false
	}
	tag = `"` + study.ETag
	if acceptsGzip(r) {
		tag += "-gzip"
	}
	tag += `"`
	return tag, etagMatches(r.Header.Get("If-None-Match"), tag)
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags, "*" matching anything, with the weak comparison
// RFC 9110 §13.1.2 prescribes for this header (a W/ prefix is ignored).
func etagMatches(header, tag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == tag {
			return true
		}
	}
	return false
}
