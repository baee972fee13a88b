package netsvc

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"
)

// StatsSnapshot's JSON keys are the "serving" objects of the
// /debug/killsafe/stats document, which operators and tests read by key
// in this order and spelling (killbench reads the Go struct, not the
// route); the encoding must stay byte-for-byte.
func TestStatsSnapshotJSONShape(t *testing.T) {
	v := StatsSnapshot{Protocol: "http", Accepted: 1, Killed: 2, PipelineHWM: 3, SojournEWMAus: 4, Overloaded: true, ShardsDrained: 5}
	const want = `{"protocol":"http","accepted":1,"active":0,"drained":0,"killed":2,"timed_out":0,"rejected":0,"shed":0,` +
		`"adm_shed":0,"adm_shed_bulk":0,"migrated":0,"req_admin":0,"req_normal":0,"req_bulk":0,"deadlined":0,"restarts":0,` +
		`"requests":0,"responses":0,"pipeline_hwm":3,"sojourn_ewma_us":4,"overloaded":true,"shards_drained":5}`
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != want {
		t.Fatalf("json.Marshal =\n%s\nwant\n%s", got, want)
	}
}

// Every integer field of StatsSnapshot takes part in addStats, and every
// live counter reaches its own snapshot field: a counter added to Stats
// but forgotten in snapshot() shows up as a count mismatch.
func TestStatsFieldsAllFold(t *testing.T) {
	var a, b StatsSnapshot
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() == reflect.Int64 {
			av.Field(i).SetInt(int64(100 + i))
			bv.Field(i).SetInt(int64(1000 + 2*i))
		}
	}
	sum := reflect.ValueOf(addStats(a, b))
	for i := 0; i < sum.NumField(); i++ {
		if sum.Field(i).Kind() != reflect.Int64 {
			continue
		}
		name, got := sum.Type().Field(i).Name, sum.Field(i).Int()
		want := int64(100+i) + int64(1000+2*i)
		if name == "PipelineHWM" || name == "SojournEWMAus" {
			want = int64(1000 + 2*i) // fleet maximum
		}
		if got != want {
			t.Errorf("addStats: %s = %d, want %d", name, got, want)
		}
	}

	var s Stats
	live := reflect.ValueOf(&s).Elem()
	for i := 0; i < live.NumField(); i++ {
		(*atomic.Int64)(live.Field(i).Addr().UnsafePointer()).Store(int64(i + 1)) // the fields are unexported
	}
	seen := map[int64]string{}
	snap := reflect.ValueOf(s.snapshot())
	for i := 0; i < snap.NumField(); i++ {
		if f := snap.Field(i); f.Kind() == reflect.Int64 && f.Int() != 0 {
			if prev, dup := seen[f.Int()]; dup {
				t.Errorf("snapshot: %s and %s read the same counter", prev, snap.Type().Field(i).Name)
			}
			seen[f.Int()] = snap.Type().Field(i).Name
		}
	}
	if len(seen) != live.NumField() {
		t.Errorf("snapshot filled %d fields from %d live counters: %v", len(seen), live.NumField(), seen)
	}
}
