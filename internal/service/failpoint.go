package service

import (
	"errors"
	"fmt"
	"sync"
)

// Failpoints are injectable fault sites in the executor and persist
// paths — the service-layer counterpart of the store's fault-injection
// filesystem. Tests (TestChaos among them) arm them to force errors,
// panics, or hangs at exact points; production code never arms any, and
// an unarmed site is a single mutex-guarded map lookup.

// Failpoint sites.
const (
	// FailExec fires in the executor goroutine before a unit runs.
	FailExec = "exec.unit"
	// FailPersist fires inside the persist retry loop before each write
	// attempt.
	FailPersist = "persist.write"
)

// FailMode is what an armed failpoint does when hit.
type FailMode int

const (
	// FailError returns an error from the site.
	FailError FailMode = iota
	// FailPanic panics at the site (exercises the recover guard).
	FailPanic
	// FailHang blocks at the site until the failpoint is released
	// (exercises deadlines and drain timeouts).
	FailHang
)

// errInjected is the default FailError error.
var errInjected = errors.New("service: injected fault")

// FailpointSpec configures one armed failpoint.
type FailpointSpec struct {
	// Tenant limits the failpoint to one tenant's jobs; empty matches
	// every tenant.
	Tenant string
	// Mode selects the fault.
	Mode FailMode
	// Count is how many hits trigger before the failpoint exhausts;
	// <= 0 means unlimited.
	Count int
	// Err overrides the FailError error.
	Err error
}

// armedFailpoint is one live failpoint.
type armedFailpoint struct {
	spec    FailpointSpec
	left    int // remaining triggers; -1 = unlimited
	release chan struct{}
}

// ArmFailpoint arms a fault at a site. The returned release function
// unblocks any goroutine hung at the failpoint and disarms it; it is
// safe to call more than once.
func (s *Service) ArmFailpoint(site string, spec FailpointSpec) (release func()) {
	fp := &armedFailpoint{spec: spec, left: spec.Count, release: make(chan struct{})}
	if spec.Count <= 0 {
		fp.left = -1
	}
	s.fpMu.Lock()
	if s.failpoints == nil {
		s.failpoints = make(map[string][]*armedFailpoint)
	}
	s.failpoints[site] = append(s.failpoints[site], fp)
	s.fpMu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() { close(fp.release) })
		s.fpMu.Lock()
		live := s.failpoints[site][:0]
		for _, f := range s.failpoints[site] {
			if f != fp {
				live = append(live, f)
			}
		}
		s.failpoints[site] = live
		s.fpMu.Unlock()
	}
}

// DisarmFailpoints releases and removes every armed failpoint.
func (s *Service) DisarmFailpoints() {
	s.fpMu.Lock()
	for _, fps := range s.failpoints {
		for _, fp := range fps {
			select {
			case <-fp.release:
			default:
				close(fp.release)
			}
		}
	}
	s.failpoints = nil
	s.fpMu.Unlock()
}

// failpoint is the site hook: it returns nil when nothing matching is
// armed, returns an error in FailError mode, panics in FailPanic mode,
// and blocks until release in FailHang mode.
func (s *Service) failpoint(site, tenant string) error {
	s.fpMu.Lock()
	var hit *armedFailpoint
	for _, fp := range s.failpoints[site] {
		if fp.spec.Tenant != "" && fp.spec.Tenant != tenant {
			continue
		}
		if fp.left == 0 {
			continue
		}
		if fp.left > 0 {
			fp.left--
		}
		hit = fp
		break
	}
	s.fpMu.Unlock()
	if hit == nil {
		return nil
	}
	switch hit.spec.Mode {
	case FailPanic:
		panic(fmt.Sprintf("failpoint %s (tenant %s)", site, tenant))
	case FailHang:
		<-hit.release
		return nil
	default:
		if hit.spec.Err != nil {
			return hit.spec.Err
		}
		return fmt.Errorf("%w at %s", errInjected, site)
	}
}
