package churn

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/topology/transitstub"
)

func testNet(t testing.TB, hosts int, seed int64) *topology.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := transitstub.Generate(transitstub.DefaultConfig(hosts), rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Attach(m, m.G, topology.AttachOptions{
		Hosts: hosts, Routers: m.StubRouters, Spread: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func baseConfig() Config {
	return Config{
		InitialNodes:     20,
		LookupEvery:      0.5,
		StabilizeEvery:   2,
		Duration:         100,
		Seed:             1,
		Depth:            2,
		Landmarks:        4,
		SuccessorListLen: 6,
	}
}

func TestValidate(t *testing.T) {
	net := testNet(t, 40, 1)
	bad := []Config{
		{},
		{InitialNodes: 5},
		{InitialNodes: 5, Duration: 10},
		{InitialNodes: 5, Duration: 10, LookupEvery: 1},
	}
	for i, cfg := range bad {
		if _, err := Run(net, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := baseConfig()
	cfg.InitialNodes = 1000
	if _, err := Run(net, cfg); err == nil {
		t.Error("initial nodes exceeding hosts accepted")
	}
}

func TestStableSystemPerfectLookups(t *testing.T) {
	net := testNet(t, 40, 2)
	cfg := baseConfig()
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookups == 0 {
		t.Fatal("no lookups executed")
	}
	if res.CorrectRate != 1.0 || res.CompletionRate != 1.0 {
		t.Errorf("stable system should be perfect: correct %.3f complete %.3f",
			res.CorrectRate, res.CompletionRate)
	}
	if res.Joins != 0 || res.Leaves != 0 || res.Fails != 0 {
		t.Error("disabled processes fired")
	}
	if res.FinalNodes != cfg.InitialNodes {
		t.Errorf("FinalNodes = %d", res.FinalNodes)
	}
}

func TestChurnWithJoinsAndLeaves(t *testing.T) {
	net := testNet(t, 80, 3)
	cfg := baseConfig()
	cfg.JoinEvery = 10
	cfg.LeaveEvery = 12
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("churn processes idle: %d joins %d leaves", res.Joins, res.Leaves)
	}
	if res.CompletionRate < 0.95 {
		t.Errorf("completion rate %.3f too low under graceful churn", res.CompletionRate)
	}
	if res.CorrectRate < 0.90 {
		t.Errorf("correctness %.3f too low under graceful churn", res.CorrectRate)
	}
}

func TestChurnWithFailures(t *testing.T) {
	net := testNet(t, 80, 4)
	cfg := baseConfig()
	cfg.FailEvery = 15
	cfg.JoinEvery = 15
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fails == 0 {
		t.Fatal("failure process idle")
	}
	// Successor lists of length 6 should keep the overlay routable.
	if res.CompletionRate < 0.90 {
		t.Errorf("completion rate %.3f too low with failures", res.CompletionRate)
	}
	if res.Msgs == 0 {
		t.Error("no protocol messages counted")
	}
}

func TestChurnDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.FailEvery = 20
	cfg.JoinEvery = 20
	r1, err := Run(testNet(t, 60, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testNet(t, 60, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Lookups != r2.Lookups || r1.Correct != r2.Correct || r1.Fails != r2.Fails {
		t.Error("same seed produced different churn results")
	}
}
