// sendmmsg batch writes (DESIGN.md §14): a send's per-endpoint datagrams
// go to the kernel in one system call instead of one per datagram. Only the
// syscall plumbing lives here — grouping and datagram layout are in send —
// so the !linux build swaps in a WriteToUDP loop with identical semantics
// (§3.1.1 fan-out works everywhere, it is just fastest on Linux).

//go:build linux && (amd64 || arm64)

package udp

import (
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr
// plus the kernel-filled transmitted-byte count and 4 bytes of alignment
// padding.
type mmsghdr struct {
	hdr syscall.Msghdr
	cnt uint32
	pad uint32
}

// batchWriter holds the reusable sendmmsg vectors, the socket's raw
// connection and the callback handed to it, each made once; guarded by
// Fabric.smu like the rest of the send-path scratch.
type batchWriter struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4

	rc   syscall.RawConn
	call func(fd uintptr) bool // sendmmsg, bound once
	// off is the first header the next call offers; wrote and errno are
	// that call's outcome.
	off   int
	wrote int
	errno syscall.Errno
}

// sendmmsg offers hdrs[off:] to the kernel. It reports false — wait until
// the socket is writable, then retry — on EAGAIN.
func (w *batchWriter) sendmmsg(fd uintptr) bool {
	r, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&w.hdrs[w.off])), uintptr(len(w.hdrs)-w.off), 0, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	w.wrote, w.errno = int(r), e
	return true
}

// writeBatch writes one datagram per (dst, buf) pair using as few sendmmsg
// calls as the kernel accepts, returning the number written and the write
// error, if any. A lone datagram, non-IPv4 destinations and raw-connection
// failures go through the portable WriteToUDP loop — sendmmsg gains nothing
// on one datagram.
func (f *Fabric) writeBatch(dsts []*net.UDPAddr, bufs [][]byte) (int, error) {
	n := len(bufs)
	if n <= 1 {
		return f.writeLoop(dsts, bufs)
	}
	for _, d := range dsts {
		if d.IP.To4() == nil {
			return f.writeLoop(dsts, bufs)
		}
	}
	w := &f.bw
	if w.rc == nil {
		rc, err := f.conn.SyscallConn()
		if err != nil {
			return f.writeLoop(dsts, bufs)
		}
		w.rc, w.call = rc, w.sendmmsg
	}

	if cap(w.hdrs) < n {
		w.hdrs = make([]mmsghdr, n)
		w.iovs = make([]syscall.Iovec, n)
		w.sas = make([]syscall.RawSockaddrInet4, n)
	}
	w.hdrs = w.hdrs[:n]
	w.iovs = w.iovs[:n]
	w.sas = w.sas[:n]
	for i := range bufs {
		sa := &w.sas[i]
		sa.Family = syscall.AF_INET
		port := uint16(dsts[i].Port)
		sa.Port = port<<8 | port>>8 // network byte order
		copy(sa.Addr[:], dsts[i].IP.To4())
		iov := &w.iovs[i]
		iov.Base = &bufs[i][0]
		iov.SetLen(len(bufs[i]))
		h := &w.hdrs[i]
		h.hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(sa)),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     iov,
			Iovlen:  1,
		}
		h.cnt = 0
	}

	var err error
	for w.off = 0; w.off < n; {
		if err = w.rc.Write(w.call); err != nil {
			break
		}
		if w.errno == syscall.EINTR {
			continue
		}
		if w.errno != 0 || w.wrote <= 0 {
			// Kernel refused (sandboxed syscall filter, shrunk buffers…):
			// finish the remainder through the portable loop.
			var m int
			m, err = f.writeLoop(dsts[w.off:], bufs[w.off:])
			w.off += m
			break
		}
		w.off += w.wrote
	}
	runtime.KeepAlive(bufs)
	return w.off, err
}
