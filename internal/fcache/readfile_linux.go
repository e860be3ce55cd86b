package fcache

import (
	"os"
	"syscall"
	"unsafe"
)

// atFDCWD is Linux's AT_FDCWD: openat resolves a relative path against
// the working directory.
const atFDCWD = -100

// readFileInto reads the whole file at path into buf's backing array,
// growing it only when the file does not fit. It makes the open, read
// and close system calls itself: os.ReadFile allocates a C string, an
// *os.File and a fresh buffer per call, which is most of what a
// cache-warm run allocates per interval vector.
func readFileInto(path, buf []byte) ([]byte, error) {
	var name [pathBufSize + 1]byte
	if len(path) >= len(name) {
		return os.ReadFile(string(path)) // too long for the stack buffer
	}
	copy(name[:], path) // the rest of name stays zero: NUL-terminated
	fdcwd := atFDCWD
	var fd int
	for {
		r, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(fdcwd),
			uintptr(unsafe.Pointer(&name[0])), syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
		if errno == 0 {
			fd = int(r)
			break
		}
		if errno != syscall.EINTR {
			return nil, errno
		}
	}
	defer syscall.Close(fd)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, err
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}
