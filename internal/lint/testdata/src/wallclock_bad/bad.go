// Corpus: wallclock must fire on every ambient-clock call in a
// deterministic-compute package (loaded as internal/env).
package badclock

import "time"

func Season(start time.Time) time.Duration {
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	_ = time.Until(start)
	return time.Since(t0)
}
