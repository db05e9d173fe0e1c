// Portable batch writes: platforms without the sendmmsg plumbing (or
// 32-bit Linux, whose mmsghdr layout differs) write a send's per-endpoint
// datagrams through a plain WriteToUDP loop. Semantics are identical to
// batch_linux.go — same datagrams, same silent-loss rule — only the syscall
// count differs (§3.1.1 fan-out, DESIGN.md §14).

//go:build !(linux && (amd64 || arm64))

package udp

import "net"

// batchWriter has no state on the portable path.
type batchWriter struct{}

// writeBatch writes one datagram per (dst, buf) pair, returning the number
// written and the first write error.
func (f *Fabric) writeBatch(dsts []*net.UDPAddr, bufs [][]byte) (int, error) {
	return f.writeLoop(dsts, bufs)
}
