package transport

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestOptionsWithDefaultsFillsZeros(t *testing.T) {
	got := Options{}.WithDefaults()
	want := DefaultOptions()
	// Fields whose zero is meaningful stay zero.
	want.LookupCache = 0
	want.BreakerThreshold = 0
	if got != want {
		t.Errorf("WithDefaults() = %+v, want %+v", got, want)
	}
	// Explicit values survive.
	o := Options{Depth: 3, Retries: 1, RouteMode: RouteOneHop}.WithDefaults()
	if o.Depth != 3 || o.Retries != 1 || o.RouteMode != RouteOneHop {
		t.Errorf("explicit fields overwritten: %+v", o)
	}
}

func TestOptionsValidateRejections(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero depth", func(o *Options) { o.Depth = 0 }},
		{"zero timeout", func(o *Options) { o.CallTimeout = 0 }},
		{"negative cache", func(o *Options) { o.LookupCache = -1 }},
		{"zero replicas", func(o *Options) { o.Replicas = 0 }},
		{"write quorum above factor", func(o *Options) { o.WriteQuorum = 4 }},
		{"negative read quorum", func(o *Options) { o.ReadQuorum = -1 }},
		{"zero retries", func(o *Options) { o.Retries = 0 }},
		{"negative backoff", func(o *Options) { o.RetryBackoff = -time.Second }},
		{"max backoff below base", func(o *Options) { o.RetryMaxBackoff = time.Millisecond }},
		{"negative breaker threshold", func(o *Options) { o.BreakerThreshold = -1 }},
		{"breaker on without cooldown", func(o *Options) { o.BreakerCooldown = 0 }},
		{"negative ttl", func(o *Options) { o.TTL = -time.Second }},
		{"zero anti-entropy cadence", func(o *Options) { o.AntiEntropyEvery = 0 }},
		{"negative anti-entropy cadence", func(o *Options) { o.AntiEntropyEvery = -2 }},
	}
	for _, c := range cases {
		o := base
		c.mutate(&o)
		err := o.Validate()
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: Validate() = %v, want ErrBadOptions", c.name, err)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
	// Breaker off doesn't require a cooldown.
	off := base
	off.BreakerThreshold, off.BreakerCooldown = 0, 0
	if err := off.Validate(); err != nil {
		t.Errorf("breaker-off options must validate: %v", err)
	}
}

func TestOptionsConfigTranslation(t *testing.T) {
	o := DefaultOptions()
	o.WriteQuorum = 2
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replication.Factor != 3 || cfg.Replication.WriteQuorum != 2 {
		t.Errorf("replication = %+v", cfg.Replication)
	}
	if cfg.Retry.MaxAttempts != 3 || cfg.Retry.BaseBackoff != 20*time.Millisecond {
		t.Errorf("retry = %+v", cfg.Retry)
	}
	if cfg.Breaker.Threshold != 5 {
		t.Errorf("breaker threshold = %d, want 5", cfg.Breaker.Threshold)
	}
	if cfg.AntiEntropyEvery != 1 {
		t.Errorf("anti-entropy cadence = %d, want 1", cfg.AntiEntropyEvery)
	}

	// TTL rides through untouched.
	withTTL := DefaultOptions()
	withTTL.TTL, withTTL.AntiEntropyEvery = time.Minute, 4
	cfgTTL, err := withTTL.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfgTTL.TTL != time.Minute || cfgTTL.AntiEntropyEvery != 4 {
		t.Errorf("ttl/cadence = %v/%d, want 1m/4", cfgTTL.TTL, cfgTTL.AntiEntropyEvery)
	}

	// Breaker 0 = off must become the wire -1 sentinel, never the wire
	// zero value (which means "default").
	cfg, err = Options{BreakerThreshold: 0}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Breaker.Threshold != -1 {
		t.Errorf("breaker-off threshold = %d, want -1", cfg.Breaker.Threshold)
	}

	if _, err := (Options{Depth: -1}).Config(); !errors.Is(err, ErrBadOptions) {
		t.Errorf("bad depth Config() = %v, want ErrBadOptions", err)
	}
}

func TestOptionsConfigRunsANode(t *testing.T) {
	cfg, err := DefaultOptions().Config()
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if !strings.Contains(nd.Addr(), "127.0.0.1") {
		t.Errorf("addr = %q", nd.Addr())
	}
	if resp, err := wireCall(nd.Addr(), wire.Request{Type: wire.TPing}, time.Second); err != nil || !resp.OK {
		t.Errorf("ping via options-built node: %v (%+v)", err, resp)
	}
}
