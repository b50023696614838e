//go:build go1.23

package memsim

import "iter"

// start turns p's body into a coroutine and runs it up to its first
// scheduling point. Each later next resumes the body until its next
// scheduling point; next reports ok=false once the body has returned
// (or failed with a violation), and stop unwinds a body still
// suspended.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(p.run)
	p.resume()
}
