package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"tkij"
)

// A wrong answer must be counted as a failed operation: feed the
// checker one served answer and one corrupted copy of it.
func TestCheckCountsCorruptedAnswer(t *testing.T) {
	ctx := context.Background()
	base := []*tkij.Collection{
		tkij.Uniform("C1", 400, 1), tkij.Uniform("C2", 400, 2), tkij.Uniform("C3", 400, 3),
	}
	q, err := tkij.QueryByName("Qo,m", tkij.QueryEnv{Params: tkij.P1, Avg: tkij.AvgLength(base...)})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tkij.NewEngine(copyCols(base), tkij.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep, err := eng.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec{id: 1, q: q, mapping: []int{0, 1, 2}}
	rec := newAnswers()
	rec.add(sp, rep.Epoch, rep.Results)
	rec.add(sp, rep.Epoch, rep.Results)
	rec.add(sp, rep.Epoch, corrupt(rep.Results))

	res, err := rec.check(ctx, base, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.answers != 3 || res.failed != 1 || !res.canaryCaught {
		t.Fatalf("checked %d answers, %d failed, canary caught %v; want 3, 1, true", res.answers, res.failed, res.canaryCaught)
	}
}

// BENCHMARK.json, contract.json and the program must name the same
// workloads and metrics.
func TestContractNames(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	var contract struct {
		Workloads map[string]json.RawMessage
		LayerMap  map[string]json.RawMessage `json:"layer_map"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	readJSON(t, "contract.json", &contract)

	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	keys := func(m map[string]json.RawMessage) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	var programWorkloads, programE2E, programLayers []string
	for name := range workloads {
		programWorkloads = append(programWorkloads, name)
	}
	for name := range endToEnd([]float64{1}, &clientStats{elapsed: 1}, 1) {
		programE2E = append(programE2E, name)
	}
	for _, m := range perLayer {
		programLayers = append(programLayers, m.name)
	}
	for _, s := range [][]string{programWorkloads, programE2E, programLayers} {
		slices.Sort(s)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"BENCHMARK.json workloads", names(bench.Workloads), programWorkloads},
		{"contract.json workloads", keys(contract.Workloads), programWorkloads},
		{"BENCHMARK.json end_to_end", names(bench.EndToEnd), programE2E},
		{"BENCHMARK.json per_layer", names(bench.PerLayer), programLayers},
		{"contract.json layer_map", keys(contract.LayerMap), programLayers},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, program has %v", c.what, c.got, c.want)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
