package fault

import "fmt"

// ActivateErr arms a failpoint that returns exactly err on every fire —
// for tests that need a specific (possibly typed) error value.
func ActivateErr(site string, err error) {
	mu.Lock()
	points[site] = &point{site: site, act: actError, err: fmt.Errorf("%w: %w", ErrInjected, err)}
	mu.Unlock()
	armed.Store(true)
}

// Deactivate disarms one site (a no-op when it is not armed).
func Deactivate(site string) {
	mu.Lock()
	delete(points, site)
	mu.Unlock()
}

// Active returns the armed site names (diagnostics).
func Active() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for site := range points {
		out = append(out, site)
	}
	return out
}
