package txntest

import (
	"fmt"
	"math/rand"
	"sync"
)

// readObs is one observed read, audited after the run: a value that no
// successfully committed transaction wrote is a dirty or lost read.
type readObs struct {
	gid, key int
	val      int64
	ownWrite bool // value was the reader's own uncommitted write
}

// RunConcurrent executes one operation stream per goroutine against its
// own connection, with no coordination between streams — the schedule
// is whatever the scheduler produces, so checks are the conservative
// subset of snapshot isolation that holds under every interleaving:
//
//   - own writes read back within the transaction;
//   - snapshot stability: two reads of a key inside one transaction
//     (without an intervening own write) return the same value;
//   - reads only observe seeded or successfully committed values,
//     audited post-hoc once commit outcomes are known;
//   - write and commit failures are serialization errors, nothing else.
//
// Streams are generated with Generate(Options{Sessions: 1, ...}) and
// must use disjoint value ranges per goroutine (see UniqueVals).
func RunConcurrent(open func() (Conn, error), streams []History, isSer func(error) bool) error {
	var mu sync.Mutex
	committedVals := map[int64]bool{}
	var reads []readObs
	errs := make(chan error, len(streams))
	var wg sync.WaitGroup

	for gid, stream := range streams {
		wg.Add(1)
		go func(gid int, h History) {
			defer wg.Done()
			c, err := open()
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			inTxn, doomed := false, false
			ownWrites := map[int]int64{}
			firstSeen := map[int]int64{}
			pending := []int64{} // values awaiting COMMIT
			for i, op := range normalize(h) {
				rows, execErr := c.Exec(op.sql())
				switch op.Kind {
				case OpBegin:
					inTxn, doomed = true, false
					ownWrites = map[int]int64{}
					firstSeen = map[int]int64{}
					pending = pending[:0]
					if execErr != nil {
						errs <- fmt.Errorf("g%d op %d (%s): %v", gid, i, op, execErr)
						return
					}
				case OpCommit:
					if execErr == nil {
						mu.Lock()
						for _, v := range pending {
							committedVals[v] = true
						}
						mu.Unlock()
					} else if !isSer(execErr) {
						errs <- fmt.Errorf("g%d op %d (%s): non-serialization commit failure: %v", gid, i, op, execErr)
						return
					} else if !doomed {
						// A commit may only fail if some statement lost a
						// conflict first (first-updater-wins dooms at
						// statement time).
						errs <- fmt.Errorf("g%d op %d (%s): commit failed without a prior statement conflict", gid, i, op)
						return
					}
					inTxn, doomed = false, false
				case OpRollback:
					if execErr != nil {
						errs <- fmt.Errorf("g%d op %d (%s): %v", gid, i, op, execErr)
						return
					}
					inTxn, doomed = false, false
				case OpRead:
					if execErr != nil {
						errs <- fmt.Errorf("g%d op %d (%s): %v", gid, i, op, execErr)
						return
					}
					if len(rows) != 1 || len(rows[0]) != 1 {
						errs <- fmt.Errorf("g%d op %d (%s): %d rows, want 1 (row vanished)", gid, i, op, len(rows))
						return
					}
					got := rows[0][0]
					own := false
					if inTxn {
						if v, ok := ownWrites[op.Key]; ok {
							own = true
							if got != v {
								errs <- fmt.Errorf("g%d op %d (%s): own write %d not read back, got %d", gid, i, op, v, got)
								return
							}
						} else if v, ok := firstSeen[op.Key]; ok {
							if got != v {
								errs <- fmt.Errorf("g%d op %d (%s): non-repeatable read, %d then %d", gid, i, op, v, got)
								return
							}
						} else {
							firstSeen[op.Key] = got
						}
					}
					mu.Lock()
					reads = append(reads, readObs{gid: gid, key: op.Key, val: got, ownWrite: own})
					mu.Unlock()
				case OpReadAll, OpReadKeys:
					if execErr != nil {
						errs <- fmt.Errorf("g%d op %d (%s): %v", gid, i, op, execErr)
						return
					}
					for _, r := range rows {
						if len(r) != 2 {
							continue
						}
						k := int(r[0])
						v, own := r[1], false
						if inTxn {
							if ov, ok := ownWrites[k]; ok {
								own = true
								if v != ov {
									errs <- fmt.Errorf("g%d op %d (%s): own write k%d=%d not read back, got %d", gid, i, op, k, ov, v)
									return
								}
							}
						}
						mu.Lock()
						reads = append(reads, readObs{gid: gid, key: k, val: v, ownWrite: own})
						mu.Unlock()
					}
				case OpWrite:
					if execErr != nil {
						if !isSer(execErr) {
							errs <- fmt.Errorf("g%d op %d (%s): non-serialization write failure: %v", gid, i, op, execErr)
							return
						}
						if inTxn {
							doomed = true
						}
						continue
					}
					if inTxn {
						ownWrites[op.Key] = op.Val
						pending = append(pending, op.Val)
					} else {
						mu.Lock()
						committedVals[op.Val] = true
						mu.Unlock()
					}
				}
			}
		}(gid, stream)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}

	// Post-hoc dirty-read audit: every observed value must be the seed
	// value or a value some successfully committed writer produced.
	for _, r := range reads {
		if r.val == 0 || r.ownWrite {
			continue
		}
		if !committedVals[r.val] {
			return fmt.Errorf("g%d read k%d = %d, a value no committed transaction wrote (dirty or lost read)", r.gid, r.key, r.val)
		}
	}
	return nil
}

// UniqueVals rewrites each stream's written values into a per-goroutine
// range so every write in a concurrent run is globally unique.
func UniqueVals(streams []History) {
	for gid, h := range streams {
		for i := range h {
			if h[i].Kind == OpWrite {
				h[i].Val += int64(gid+1) * 1_000_000
			}
		}
	}
}

// GenerateStreams builds n independent single-session streams for
// RunConcurrent, already value-disjoint.
func GenerateStreams(rnd *rand.Rand, n int, o Options) []History {
	o.Sessions = 1
	streams := make([]History, n)
	for i := range streams {
		streams[i] = Generate(rand.New(rand.NewSource(rnd.Int63())), o)
	}
	UniqueVals(streams)
	return streams
}
