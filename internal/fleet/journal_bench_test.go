package fleet

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkJournalAppend measures the coordinator journal's durable
// write path: encoding "report" records of CloverLeaf search outcomes
// as sealed lines, then one write and one fsync per batch, appending to
// a journal in a fresh temporary directory. batch=1 is a lone report,
// batch=16 a worker's reportbatch for a 16-task claim; ns/record is the
// cost per journaled evaluation.
func BenchmarkJournalAppend(b *testing.B) {
	outs := searchOutcomes(16)
	wire := make([]*Outcome, len(outs))
	tasks := make([]string, len(outs))
	for i, out := range outs {
		var err error
		if wire[i], err = encodeOutcome("cfr", i, out); err != nil {
			b.Fatal(err)
		}
		tasks[i] = fmt.Sprintf("job-1/cfr/%d#%d", i, i+1)
	}
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			j, _, err := openJournal(filepath.Join(b.TempDir(), "journal"))
			if err != nil {
				b.Fatal(err)
			}
			defer j.close()
			bodies := make([]journalBody, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range bodies {
					bodies[i] = journalBody{Op: opReport, Task: tasks[i], Worker: "w1", Epoch: 1, Outcome: wire[i]}
				}
				if err := j.append(bodies...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
		})
	}
}
