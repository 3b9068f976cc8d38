package fleet

import (
	"encoding/json"
	"fmt"
	"testing"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/xrand"
)

// BenchmarkWireClaimBatch measures the per-claim codec end to end: the
// coordinator encoding CV rows and marshalling a 16-task
// claimBatchResponse of CloverLeaf search claims (one ICC CV for each
// of its 12 outlined modules), and a worker unmarshalling it and
// rebuilding every task's CVs.
func BenchmarkWireClaimBatch(b *testing.B) {
	const tasks, modules = 16, 12
	space := flagspec.ICC()
	r := xrand.New(1)
	cvs := make([][]flagspec.CV, tasks)
	for i := range cvs {
		cvs[i] = space.Sample(r, modules)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var resp claimBatchResponse
		for i, row := range cvs {
			resp.Tasks = append(resp.Tasks, &Task{
				ID: fmt.Sprintf("job-1/cfr/%d#%d", i, i+1), Job: "job-1", Spec: testSpec(),
				Phase: "cfr", Sample: i, CVs: encodeCVs(row),
				Epoch: 1, LeaseMillis: 10000, HeartbeatMillis: 1000,
			})
		}
		data, err := json.Marshal(resp)
		if err != nil {
			b.Fatal(err)
		}
		var back claimBatchResponse
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
		for _, t := range back.Tasks {
			if _, err := decodeCVs(space, t.CVs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
