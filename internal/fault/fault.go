// Package fault is a zero-cost-when-disabled failpoint framework: named
// injection sites threaded through the storage, wire and engine layers
// let tests (and operators chasing a bug) inject I/O errors, panics and
// delays at the exact points where real hardware and networks fail —
// the discipline Hekaton-class engines apply to their durability paths.
//
// # Cost model
//
// A site is one call: `if err := fault.Inject(fault.WALFsync); err != nil`.
// When no failpoint has ever been activated, Inject is a single atomic
// load and a predictable branch — no map lookup, no allocation, no lock.
// The package-level `armed` flag only flips on once the first failpoint
// activates, so production binaries carry the sites for free (guarded by
// TestInjectDisabledZeroAlloc and BenchmarkInjectDisabled).
//
// # Activation
//
// Tests use the programmatic API:
//
//	fault.Activate(fault.WALFsync, "error(simulated fsync failure)")
//	defer fault.Reset()
//
// Processes under test (the chaos CI job, an operator reproducing a
// field failure) use the environment:
//
//	FAULT_POINTS='storage/wal-fsync=error@1in50;wire/frame-write=disconnect@after100'
//	FAULT_SEED=12345   # pins the 1inN coin flips, like RECOVERY_SEED
//
// # Trigger grammar
//
// Each activation is  action[(arg)]  followed by zero or more @modifiers:
//
//	error            inject a generic injected-fault error
//	error(msg)       inject an error with the given message
//	enospc           inject ErrNoSpace (simulated "no space left on device")
//	shortwrite       inject ErrShortWrite (sites that support it tear the
//	                 write mid-buffer before failing, like a real torn page)
//	disconnect       inject ErrDisconnect (wire sites drop the connection)
//	panic            panic with an injected-fault value
//	panic(msg)       panic with the given message
//	delay(duration)  sleep for the duration, then continue WITHOUT error
//
//	@1inN            fire with probability 1/N per hit (seed-pinned RNG)
//	@afterN          skip the first N hits, fire from hit N+1 on
//	@timesN          fire at most N times, then deactivate
//
// Modifiers compose: `error@after10@times1` fires exactly once, on the
// 11th hit. A firing delay trigger sleeps and returns nil; every other
// action returns an error (or panics), which the site's surrounding code
// treats exactly like the real failure it stands in for.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names threaded through the engine. A constant per site keeps
// Inject calls allocation-free and makes the full catalog greppable;
// activation accepts any string, so tests may also mint private sites.
const (
	// Storage: the write-ahead log and checkpoint paths.
	WALAppend  = "storage/wal-append"  // staging a record into the log buffer
	WALWrite   = "storage/wal-write"   // writing the staged buffer to the segment
	WALFsync   = "storage/wal-fsync"   // fsyncing the segment (group commit)
	WALRotate  = "storage/wal-rotate"  // closing a full segment, opening the next
	CkptWrite  = "storage/ckpt-write"  // writing the checkpoint image
	CkptRename = "storage/ckpt-rename" // renaming checkpoint tmp -> final
	DirSync    = "storage/dir-sync"    // fsyncing the data directory

	// Wire: the server's network edges.
	WireAccept     = "wire/accept"      // a freshly accepted connection
	WireFrameRead  = "wire/frame-read"  // reading the next request frame
	WireFrameWrite = "wire/frame-write" // writing a response/row/trailer frame

	// Engine: the statement commit path.
	EngineCommit = "engine/commit" // before the MVCC commit publishes

	// IVM: a refresh's propagate path.
	IVMSeal          = "ivm/seal"           // before a refresh takes its cut
	IVMPropagateView = "ivm/propagate-view" // before one view's propagation body runs
	IVMCombine       = "ivm/combine"        // after the group's bodies, before its transaction commits
)

// Sentinel errors for the built-in actions. Sites that can simulate the
// physical failure mode inspect them (errors.Is) before returning.
var (
	// ErrInjected is the generic injected-fault error; every injected
	// error wraps it, so errors.Is(err, fault.ErrInjected) identifies an
	// injected failure regardless of action or message.
	ErrInjected = errors.New("fault: injected failure")
	// ErrNoSpace simulates ENOSPC from the filesystem.
	ErrNoSpace = fmt.Errorf("%w: no space left on device (simulated ENOSPC)", ErrInjected)
	// ErrShortWrite simulates a torn write: sites that support it write a
	// prefix of the buffer before failing, like a crash mid-write.
	ErrShortWrite = fmt.Errorf("%w: short write (simulated torn write)", ErrInjected)
	// ErrDisconnect simulates a peer disconnect at a wire site.
	ErrDisconnect = fmt.Errorf("%w: connection dropped (simulated disconnect)", ErrInjected)
)

// action enumerates what a firing failpoint does.
type action uint8

const (
	actError action = iota
	actPanic
	actDelay
)

// point is one activated failpoint.
type point struct {
	site string
	act  action
	err  error         // actError: the error to return
	msg  string        // actPanic: the panic message
	dur  time.Duration // actDelay: how long to sleep

	oneIn int64 // fire with probability 1/oneIn (0 = always)
	after int64 // skip the first `after` hits
	times int64 // fire at most `times` times (0 = unlimited)

	hits  atomic.Int64 // times the site was reached while active
	fired atomic.Int64 // times the trigger actually fired
}

var (
	// armed is the fast-path gate: false until the first Activate (or env
	// activation), after which Inject takes the slow path. It never flips
	// back to false — deactivation empties the registry instead — so the
	// fast path needs no ordering beyond the single atomic load.
	armed atomic.Bool

	mu     sync.Mutex
	points map[string]*point
	rng    *rand.Rand // seed-pinned coin flips for @1inN, guarded by mu

	// injected counts fired failpoints process-wide — surfaced as the
	// wire stats op's server.faultInjected counter.
	injected atomic.Int64
)

func init() {
	points = map[string]*point{}
	rng = rand.New(rand.NewSource(envSeed()))
	if spec := os.Getenv("FAULT_POINTS"); spec != "" {
		if err := ActivateSpec(spec); err != nil {
			// A malformed env spec must be loud: silently running without
			// the requested faults would make a chaos run vacuous.
			panic(fmt.Sprintf("fault: bad FAULT_POINTS: %v", err))
		}
	}
}

// envSeed returns the FAULT_SEED-pinned RNG seed, or a clock seed.
func envSeed() int64 {
	if v := os.Getenv("FAULT_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return time.Now().UnixNano()
}

// Seed re-seeds the @1inN coin-flip RNG (tests pin their own seeds on
// top of FAULT_SEED).
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// Inject is the site call: it reports the fault to inject at this site,
// nil when none. The disabled path — no failpoint ever activated — is a
// single atomic load.
func Inject(site string) error {
	if !armed.Load() {
		return nil
	}
	return inject(site)
}

// inject is the armed slow path.
func inject(site string) error {
	mu.Lock()
	p := points[site]
	if p == nil {
		mu.Unlock()
		return nil
	}
	hit := p.hits.Add(1)
	if p.after > 0 && hit <= p.after {
		mu.Unlock()
		return nil
	}
	if p.oneIn > 1 && rng.Int63n(p.oneIn) != 0 {
		mu.Unlock()
		return nil
	}
	if p.times > 0 && p.fired.Load() >= p.times {
		delete(points, site) // exhausted
		mu.Unlock()
		return nil
	}
	p.fired.Add(1)
	act, err, msg, dur := p.act, p.err, p.msg, p.dur
	mu.Unlock()

	injected.Add(1)
	switch act {
	case actPanic:
		panic(fmt.Sprintf("fault: injected panic at %s: %s", site, msg))
	case actDelay:
		time.Sleep(dur)
		return nil
	default:
		return err
	}
}

// Activate arms one failpoint from its spec string (see the package
// comment for the grammar). Re-activating a site replaces its previous
// trigger and resets its counters.
func Activate(site, spec string) error {
	p, err := parsePoint(site, spec)
	if err != nil {
		return err
	}
	mu.Lock()
	points[site] = p
	mu.Unlock()
	armed.Store(true)
	return nil
}

// ActivateSpec arms a semicolon-separated list of site=spec activations
// (the FAULT_POINTS env format).
func ActivateSpec(list string) error {
	for _, part := range strings.Split(list, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, spec, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("fault: %q is not site=spec", part)
		}
		if err := Activate(strings.TrimSpace(site), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Reset disarms every failpoint. Tests defer it so failpoints never leak
// across test boundaries. (The armed fast-path flag intentionally stays
// set for the life of the process once any test armed a point.)
func Reset() {
	mu.Lock()
	points = map[string]*point{}
	mu.Unlock()
}

// Hits returns how many times an armed site has been reached and how
// many times its trigger fired (0, 0 for unarmed sites).
func Hits(site string) (hits, fired int64) {
	mu.Lock()
	defer mu.Unlock()
	if p := points[site]; p != nil {
		return p.hits.Load(), p.fired.Load()
	}
	return 0, 0
}

// Injected returns the process-wide count of fired failpoints (the wire
// stats op's server.faultInjected counter).
func Injected() int64 { return injected.Load() }

// parsePoint parses `action[(arg)][@mod]...` into a point.
func parsePoint(site, spec string) (*point, error) {
	if site == "" {
		return nil, errors.New("fault: empty site name")
	}
	parts := strings.Split(spec, "@")
	p := &point{site: site}

	head := strings.TrimSpace(parts[0])
	name, arg := head, ""
	if i := strings.IndexByte(head, '('); i >= 0 {
		if !strings.HasSuffix(head, ")") {
			return nil, fmt.Errorf("fault: unterminated argument in %q", head)
		}
		name, arg = head[:i], head[i+1:len(head)-1]
	}
	switch name {
	case "error":
		p.act = actError
		if arg == "" {
			p.err = fmt.Errorf("%w at %s", ErrInjected, site)
		} else {
			p.err = fmt.Errorf("%w at %s: %s", ErrInjected, site, arg)
		}
	case "enospc":
		p.act, p.err = actError, ErrNoSpace
	case "shortwrite":
		p.act, p.err = actError, ErrShortWrite
	case "disconnect":
		p.act, p.err = actError, ErrDisconnect
	case "panic":
		p.act = actPanic
		p.msg = arg
		if p.msg == "" {
			p.msg = "injected"
		}
	case "delay":
		p.act = actDelay
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("fault: delay needs a duration argument, got %q", arg)
		}
		p.dur = d
	default:
		return nil, fmt.Errorf("fault: unknown action %q", name)
	}

	for _, m := range parts[1:] {
		m = strings.TrimSpace(m)
		switch {
		case strings.HasPrefix(m, "1in"):
			n, err := strconv.ParseInt(m[3:], 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: bad modifier %q", m)
			}
			p.oneIn = n
		case strings.HasPrefix(m, "after"):
			n, err := strconv.ParseInt(m[5:], 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: bad modifier %q", m)
			}
			p.after = n
		case strings.HasPrefix(m, "times"):
			n, err := strconv.ParseInt(m[5:], 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: bad modifier %q", m)
			}
			p.times = n
		default:
			return nil, fmt.Errorf("fault: unknown modifier %q", m)
		}
	}
	return p, nil
}
