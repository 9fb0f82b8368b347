// Package nested exercises lockcheck's nested-acquire rule: taking a mutex
// while another (or the same) one is held is flagged; releasing first, and
// locking inside a spawned goroutine, are accepted.
package nested

import "sync"

type account struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// Transfer holds from.mu while it takes to.mu: two goroutines transferring
// in opposite directions deadlock.
func Transfer(from, to *account, amt int) {
	from.mu.Lock()
	defer from.mu.Unlock()
	to.mu.Lock() // want `to.mu.Lock\(\) while from.mu.Lock\(\) is held \(acquired at line 17\)`
	from.n -= amt
	to.n += amt
	to.mu.Unlock()
}

// Relock takes a non-reentrant mutex it already holds.
func (a *account) Relock() {
	a.mu.Lock()
	a.mu.Lock() // want `a.mu.Lock\(\) while a.mu.Lock\(\) is held`
	a.mu.Unlock()
	a.mu.Unlock()
}

// ReadUnderWrite takes a read lock while a write lock is held.
func (a *account) ReadUnderWrite() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rw.RLock() // want `a.rw.RLock\(\) while a.mu.Lock\(\) is held`
	defer a.rw.RUnlock()
	return a.n
}

// TransferSequential is the accepted shape: read under one lock, release
// it, then write under the other.
func TransferSequential(from, to *account, amt int) {
	from.mu.Lock()
	from.n -= amt
	from.mu.Unlock()
	to.mu.Lock()
	to.n += amt
	to.mu.Unlock()
}

// Spawn's goroutine locks on its own stack, not under the caller's lock.
func (a *account) Spawn(b *account, done chan struct{}) {
	a.mu.Lock()
	a.n++
	go func() {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
		close(done)
	}()
	a.mu.Unlock()
}

// ViaCallee holds a.mu while b.bump takes b.mu. The rule is
// intraprocedural, so this is a documented false negative.
func (a *account) ViaCallee(b *account) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.bump()
}

func (a *account) bump() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}
