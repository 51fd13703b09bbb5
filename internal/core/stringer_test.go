package core_test

import (
	"strconv"
	"strings"
	"testing"

	"rbcast/internal/core"
)

// TestMsgKindStrings: every kind from MsgData up to NumMsgKinds has its
// own name, and anything outside that range renders its number.
func TestMsgKindStrings(t *testing.T) {
	want := []string{"data", "info", "attach-req", "attach-accept", "attach-reject", "detach",
		"bundle", "info-delta", "echo", "ready", "sync-req", "sync-resp", "snap-req", "snap-chunk"}
	if n := int(core.NumMsgKinds - core.MsgData); n != len(want) {
		t.Fatalf("%d message kinds, %d names here", n, len(want))
	}
	for k := core.MsgData; k < core.NumMsgKinds; k++ {
		if got := k.String(); got != want[k-core.MsgData] {
			t.Errorf("%d.String() = %q, want %q", k, got, want[k-core.MsgData])
		}
	}
	for _, k := range []core.MsgKind{0, core.NumMsgKinds, 99} {
		if got := k.String(); !strings.Contains(got, strconv.Itoa(int(k))) {
			t.Errorf("unknown kind %d renders %q", k, got)
		}
	}
}

func TestIsControl(t *testing.T) {
	for k := core.MsgData; k < core.NumMsgKinds; k++ {
		if got, want := k.IsControl(), k != core.MsgData; got != want {
			t.Errorf("%v.IsControl() = %v", k, got)
		}
	}
}

// TestEventKindStrings: every kind from EvAccepted up to NumEventKinds
// has a name of its own, and anything outside that range renders its
// number.
func TestEventKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := core.EvAccepted; k < core.NumEventKinds; k++ {
		s := k.String()
		if s == "" || strings.Contains(s, "EventKind") {
			t.Errorf("%d.String() = %q", k, s)
		}
		if seen[s] {
			t.Errorf("duplicate event string %q", s)
		}
		seen[s] = true
	}
	for _, k := range []core.EventKind{0, core.NumEventKinds, 99} {
		if got := k.String(); !strings.Contains(got, strconv.Itoa(int(k))) {
			t.Errorf("unknown event kind %d renders %q", k, got)
		}
	}
}

func TestClusterModeUnknownString(t *testing.T) {
	if got := core.ClusterMode(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown mode renders %q", got)
	}
}

func TestParentViewOfSelf(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	if got := h.ParentView(2); got != core.Nil {
		t.Errorf("ParentView(self) = %d, want Nil", got)
	}
	makeParent(t, h, env, 3)
	if got := h.ParentView(2); got != 3 {
		t.Errorf("ParentView(self) = %d after attach, want 3", got)
	}
}
