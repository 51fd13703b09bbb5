package core_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"rbcast/internal/basic"
	"rbcast/internal/core"
)

// TestEveryParamIsDocumentedAndRangeChecked walks core.Params and
// basic.Params by reflection. Every field needs a | `Name` | row in its
// README table, and every field that is not a bool needs values in
// outOfRange: each one, set alone on a valid base — for core.Params one
// with every layer on — must make Validate fail. A field the table lacks
// fails the test, so a tunable cannot land unchecked or undocumented.
func TestEveryParamIsDocumentedAndRangeChecked(t *testing.T) {
	t.Run("core", func(t *testing.T) {
		base := core.DefaultParams().WithBackoff().WithCatchupSync()
		base.EchoReady = true
		checkParams(t, base, "../../README.md", map[string][]any{
			"TickInterval":      {0, -1},
			"AttachPeriod":      {0, -1},
			"InfoClusterPeriod": {0, -1},
			"InfoRemotePeriod":  {0, -1},
			"InfoGlobalPeriod":  {0, -1},
			"GapClusterPeriod":  {0, -1},
			"GapRemotePeriod":   {0, -1},
			"GapGlobalPeriod":   {0, -1},
			"AttachTimeout":     {0, -1},
			"ParentTimeout":     {0, -1, base.InfoClusterPeriod},
			"GapFillBatch":      {0, -1},
			"ClusterMode":       {-1, core.ClusterNone + 1},
			"EchoMaxFaulty":     {-1, core.MaxEchoFaulty + 1},
			"BackoffBase":       {0, -1},
			"BackoffMax":        {base.BackoffBase - 1},
			"BackoffMultiplier": {0, 0.5},
			"SuspicionAfter":    {0, -1},
			"SyncBatch":         {0, -1},
			"SyncWindow":        {0, -1},
			"SyncTimeout":       {0, -1},
			"SyncPeriod":        {0, -1},
			"SnapshotEvery":     {0, -1},
			"SnapChunk":         {0, -1},
		})
	})
	t.Run("basic", func(t *testing.T) {
		checkParams(t, basic.DefaultParams(), "../basic/README.md", map[string][]any{
			"RetryPeriod":  {0, -1},
			"TickInterval": {0, -1},
		})
	})
}

func checkParams[P interface{ Validate() error }](t *testing.T, base P, readme string, outOfRange map[string][]any) {
	if err := base.Validate(); err != nil {
		t.Fatalf("base: %v", err)
	}
	doc, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if !strings.Contains(string(doc), "\n| `"+field.Name+"` |") {
			t.Errorf("%s.%s has no | `%[2]s` | row in %s", typ, field.Name, readme)
		}
		values, ok := outOfRange[field.Name]
		delete(outOfRange, field.Name)
		if field.Type.Kind() == reflect.Bool {
			continue
		}
		if !ok {
			t.Errorf("%s.%s has no out-of-range values here: add them, and the check Validate needs", typ, field.Name)
		}
		for _, v := range values {
			p := base
			reflect.ValueOf(&p).Elem().Field(i).Set(reflect.ValueOf(v).Convert(field.Type))
			if p.Validate() == nil {
				t.Errorf("Validate accepts %s.%s = %v", typ, field.Name, v)
			}
		}
	}
	for name := range outOfRange {
		t.Errorf("outOfRange names %s, which %s does not have", name, typ)
	}
}
