// Corpus: the injected-clock idiom must pass wallclock — time.Now is
// referenced as a value (the hook default), never called (loaded as
// internal/env).
package goodclock

import "time"

type Config struct {
	now func() time.Time
}

func (c *Config) withDefaults() {
	if c.now == nil {
		c.now = time.Now
	}
}

func (c *Config) Stamp() time.Time {
	c.withDefaults()
	return c.now()
}
