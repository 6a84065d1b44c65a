package txn

import (
	"fmt"
	"sync"
	"testing"

	"pathdb/internal/storage"
)

// BenchmarkCommit measures the write path's acknowledgement cost with the
// default options: one op is one committed transaction (an insert and its
// delete, so the volume stays the same size however long the run), split
// over the given number of concurrent writers. ns/op is therefore wall time
// per commit; flushes/commit shows whether commits shared log writes. solo
// must report 1 flush per commit — no benchmark/ workload has two writers,
// so writers=4 is the only place the grouped path is timed.
func BenchmarkCommit(b *testing.B) {
	for _, writers := range []int{1, 4} {
		name := fmt.Sprintf("writers=%d", writers)
		if writers == 1 {
			name = "solo"
		}
		b.Run(name, func(b *testing.B) {
			st, dict, root := fixture(b, 1024)
			m, err := NewManager(st, Options{})
			if err != nil {
				b.Fatal(err)
			}
			ins := dict.Intern("ins")
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						err := m.Update(func(tx *Tx) error {
							id, err := tx.InsertSubtree(root, storage.InvalidNodeID, insFrag(ins, w))
							if err != nil {
								return err
							}
							return tx.DeleteSubtree(id)
						})
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(m.Metrics().FlushesPerCommit(), "flushes/commit")
		})
	}
}
