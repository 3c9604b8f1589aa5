// Corpus: well-formed pawsvet:allow comments — trailing the offending
// line or on the line directly above — silence the named check (loaded
// as internal/env).
package goodsuppress

import "time"

func Stamp() time.Time {
	return time.Now() //pawsvet:allow wallclock -- corpus: trailing-comment placement
}

func Elapsed(t0 time.Time) time.Duration {
	//pawsvet:allow wallclock -- corpus: line-above placement
	return time.Since(t0)
}
