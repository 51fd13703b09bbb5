package rbcast_test

import (
	"testing"
	"time"

	"rbcast"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := rbcast.Simulate(rbcast.SimulationConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("default simulation incomplete: %d/%d", res.DeliveredCount, res.ExpectedCount)
	}
	if res.Hosts != 9 || res.Clusters != 3 || res.Messages != 20 {
		t.Errorf("defaults wrong: hosts=%d clusters=%d messages=%d", res.Hosts, res.Clusters, res.Messages)
	}
	if res.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestSimulateBasicAlgorithm(t *testing.T) {
	res, err := rbcast.Simulate(rbcast.SimulationConfig{
		Seed:      2,
		Algorithm: rbcast.AlgorithmBasic,
		Clusters:  2, HostsPerCluster: 2,
		Messages: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("basic simulation incomplete")
	}
	if res.SendsByKind[rbcast.SendAck] == 0 {
		t.Error("basic run recorded no acks")
	}
}

func TestSimulateWithLoss(t *testing.T) {
	res, err := rbcast.Simulate(rbcast.SimulationConfig{
		Seed:              3,
		Clusters:          2,
		HostsPerCluster:   3,
		Messages:          10,
		ExpensiveLossProb: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("lossy simulation incomplete: %d/%d", res.DeliveredCount, res.ExpectedCount)
	}
}

func TestSimulateRejectsBadAlgorithm(t *testing.T) {
	if _, err := rbcast.Simulate(rbcast.SimulationConfig{Algorithm: 42}); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestSimulatePartitionValidation(t *testing.T) {
	if _, err := rbcast.Simulate(rbcast.SimulationConfig{
		Partition: &rbcast.PartitionSpec{Cluster: 0, At: 5 * time.Second, HealAt: 2 * time.Second},
	}); err == nil {
		t.Error("heal-before-cut partition accepted")
	}
	if _, err := rbcast.Simulate(rbcast.SimulationConfig{
		Clusters:  2,
		Partition: &rbcast.PartitionSpec{Cluster: 7, At: time.Second, HealAt: 2 * time.Second},
	}); err == nil {
		t.Error("out-of-range partition cluster accepted")
	}
}

func TestSimulateWithPartition(t *testing.T) {
	res, err := rbcast.Simulate(rbcast.SimulationConfig{
		Seed:            6,
		Clusters:        2,
		HostsPerCluster: 2,
		Messages:        10,
		MsgInterval:     200 * time.Millisecond,
		Partition: &rbcast.PartitionSpec{
			Cluster: 1,
			At:      time.Second,
			HealAt:  8 * time.Second,
		},
		Drain: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("partitioned simulation did not complete after heal: %d/%d",
			res.DeliveredCount, res.ExpectedCount)
	}
	if res.UnreachableSends == 0 {
		t.Error("no unreachable sends recorded during the partition")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	run := func() string {
		res, err := rbcast.Simulate(rbcast.SimulationConfig{Seed: 11, Messages: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed simulations differ:\n%s\nvs\n%s", a, b)
	}
}

func TestPublicFleet(t *testing.T) {
	fleet, err := rbcast.StartFleet(rbcast.FleetConfig{
		Hosts:  []rbcast.HostID{1, 2, 3},
		Source: 1,
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Stop()
	seq, err := fleet.Broadcast([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !fleet.WaitDelivered(seq, 10*time.Second) {
		t.Fatal("live broadcast incomplete through public API")
	}
}

func TestPublicHostConstruction(t *testing.T) {
	env := nopEnv{}
	h, err := rbcast.NewHost(rbcast.Config{
		ID:     2,
		Source: 1,
		Peers:  []rbcast.HostID{1, 2, 3},
		Params: rbcast.DefaultParams(),
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != 2 || h.IsSource() {
		t.Errorf("host identity wrong: id=%d source=%v", h.ID(), h.IsSource())
	}
	if h.Parent() != rbcast.Nil {
		t.Errorf("fresh host has parent %d", h.Parent())
	}
}

type nopEnv struct{}

func (nopEnv) Send(rbcast.HostID, rbcast.Message) {}
func (nopEnv) Deliver(rbcast.Seq, []byte)         {}

func TestPublicReplicaStore(t *testing.T) {
	s := rbcast.NewReplicaStore()
	u := rbcast.ReplicaUpdate{Key: "k", Value: "v", Stamp: 1, Origin: 2}
	data, err := rbcast.EncodeReplicaUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rbcast.DecodeReplicaUpdate(data)
	if err != nil || got != u {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	s.Apply(got)
	if v, ok := s.Get("k"); !ok || v != "v" {
		t.Errorf("Get = %q,%v", v, ok)
	}
}

func TestPublicUDPGroup(t *testing.T) {
	g, err := rbcast.StartUDPGroup(3, rbcast.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	seq, err := g.Broadcast([]byte("dgram"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.WaitAll(seq, 15*time.Second) {
		t.Fatal("UDP broadcast via public API incomplete")
	}
}

func TestPublicMultiSourceFleet(t *testing.T) {
	fleet, err := rbcast.StartFleet(rbcast.FleetConfig{
		Hosts:   []rbcast.HostID{1, 2, 3},
		Source:  1,
		Sources: []rbcast.HostID{2},
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Stop()
	if _, err := fleet.BroadcastFrom(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !fleet.WaitStreamDelivered(2, 1, 15*time.Second) {
		t.Fatal("second stream incomplete via public API")
	}
}
