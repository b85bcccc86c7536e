package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/wire"
)

// TestConfigValidateRejections: Start refuses a malformed Config with an
// error wrapping ErrBadOptions before it opens a listener, and zero
// fields — "use the default" — never count as malformed.
func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative depth", func(c *Config) { c.Depth = -1 }},
		{"negative timeout", func(c *Config) { c.CallTimeout = -time.Second }},
		{"negative successor list", func(c *Config) { c.SuccListLen = -1 }},
		{"unknown route mode", func(c *Config) { c.RouteMode = "twohop" }},
		{"retired cached mode", func(c *Config) { c.RouteMode = "cached" }},
		{"negative replicas", func(c *Config) { c.Replication.Factor = -1 }},
		{"write quorum above factor", func(c *Config) { c.Replication.WriteQuorum = 4 }},
		{"write quorum above explicit factor", func(c *Config) { c.Replication = replica.Options{Factor: 2, WriteQuorum: 3} }},
		{"negative read quorum", func(c *Config) { c.Replication.ReadQuorum = -1 }},
		{"negative retries", func(c *Config) { c.Retry.MaxAttempts = -1 }},
		{"negative backoff", func(c *Config) { c.Retry.BaseBackoff = -time.Second }},
		{"max backoff below base", func(c *Config) {
			c.Retry = wire.RetryPolicy{BaseBackoff: 20 * time.Millisecond, MaxBackoff: time.Millisecond}
		}},
		{"negative breaker cooldown", func(c *Config) { c.Breaker.Cooldown = -time.Second }},
		{"negative ttl", func(c *Config) { c.TTL = -time.Second }},
		{"negative anti-entropy cadence", func(c *Config) { c.AntiEntropyEvery = -2 }},
	}
	for _, c := range cases {
		var cfg Config
		c.mutate(&cfg)
		nd, err := Start("127.0.0.1:0", cfg)
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: Start() = %v, want ErrBadOptions", c.name, err)
		}
		if nd != nil {
			nd.Close()
		}
	}
	// The zero Config, the breaker's off sentinel and a base backoff with
	// the default cap are all valid.
	for _, cfg := range []Config{
		{},
		{Breaker: wire.BreakerPolicy{Threshold: -1}},
		{Retry: wire.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Microsecond}},
	} {
		nd, err := Start("127.0.0.1:0", cfg)
		if err != nil {
			t.Errorf("Start(%+v) = %v, want a node", cfg, err)
			continue
		}
		nd.Close()
	}
}
