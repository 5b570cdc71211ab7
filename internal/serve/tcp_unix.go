//go:build unix

package serve

import (
	"io"
	"net"
	"syscall"
	"time"
)

// readNonblock reads into p with one non-blocking read(2) on c's
// socket, skipping the poller's deadline check: (0, errIdle) when the
// socket is empty, (0, io.EOF) when the peer has closed. Connections
// without a file descriptor fall back to a read bounded by the batch
// linger.
func readNonblock(c net.Conn, p []byte) (int, error) {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return lingerRead(c, p)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0, err
	}
	var n int
	var rerr error
	c.SetReadDeadline(time.Time{}) // RawConn.Read checks the deadline first
	err = rc.Read(func(fd uintptr) bool {
		for {
			n, rerr = syscall.Read(int(fd), p)
			if rerr != syscall.EINTR {
				return true // never wait for readiness
			}
		}
	})
	switch {
	case err != nil:
		return 0, err
	case rerr == syscall.EAGAIN:
		return 0, errIdle
	case rerr != nil:
		return 0, rerr
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}
