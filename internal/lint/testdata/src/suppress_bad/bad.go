// Corpus: a pawsvet:allow comment with no reason (or an unknown check
// name) must not suppress anything and is itself a finding (loaded as
// internal/env).
package badsuppress

import (
	"math/rand"
	"time"
)

func MissingReason() time.Time {
	//pawsvet:allow wallclock
	return time.Now()
}

func UnknownCheck() float64 {
	//pawsvet:allow clockwall -- the reason is fine but the check name is not
	return rand.Float64()
}
