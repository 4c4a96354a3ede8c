package db

import (
	"sync"
	"testing"

	"nnlqp/internal/models"
)

// TestStoreConcurrentFirstInsert races N goroutines through the first insert
// of one platform and one model on a fresh store. Every caller must succeed
// and all must agree on the row: the losers of the unique-index race adopt
// the winner's record instead of failing with a unique violation.
func TestStoreConcurrentFirstInsert(t *testing.T) {
	const workers, rounds = 8, 40
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	for round := 0; round < rounds; round++ {
		s, err := OpenStore("")
		if err != nil {
			t.Fatal(err)
		}
		platIDs := make([]uint64, workers)
		modelIDs := make([]uint64, workers)
		errs := make([]error, 2*workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(2)
			go func(w int) {
				defer wg.Done()
				<-start
				p, err := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
				if err == nil {
					platIDs[w] = p.ID
				}
				errs[w] = err
			}(w)
			go func(w int) {
				defer wg.Done()
				<-start
				m, err := s.InsertModel(g.Clone())
				if err == nil {
					modelIDs[w] = m.ID
				}
				errs[workers+w] = err
			}(w)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: concurrent first insert failed: %v", round, err)
			}
		}
		for w := 1; w < workers; w++ {
			if platIDs[w] != platIDs[0] || modelIDs[w] != modelIDs[0] {
				t.Fatalf("round %d: callers disagree: platforms %v, models %v", round, platIDs, modelIDs)
			}
		}
		if m, p, _ := s.Counts(); m != 1 || p != 1 {
			t.Fatalf("round %d: %d models, %d platforms stored, want 1 and 1", round, m, p)
		}
		s.Close()
	}
}
