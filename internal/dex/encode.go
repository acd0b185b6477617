package dex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"libspector/internal/codec"
)

// Binary container format ("SDEX"), a compact dex-like layout:
//
//	magic      [4]byte  "SDEX"
//	version    uint16   (currently 1)
//	created    int64    unix seconds (0 encodes DefaultDexTime)
//	stringPool uint32 count, then per string: uvarint length + bytes
//	methods    uint32 count, then per method:
//	             class  uvarint string-pool index
//	             name   uvarint string-pool index
//	             return uvarint string-pool index
//	             nparam uvarint, then per param: uvarint string-pool index
//
// The string pool deduplicates class names and descriptors, mirroring how
// real dex files intern strings and type ids.

var sdexMagic = [4]byte{'S', 'D', 'E', 'X'}

const sdexVersion uint16 = 1

// Encode serializes the file into the SDEX container format.
func (f *File) Encode() ([]byte, error) { return f.AppendEncode(nil), nil }

// AppendEncode appends the file's SDEX encoding to dst and returns the
// result. Its string pool, pool index and reference list are scratch
// kept from one encode to the next, so encoding a file like the last
// one allocates nothing beyond what dst has to grow by.
func (f *File) AppendEncode(dst []byte) []byte {
	var e *encodeScratch
	select {
	case e = <-idleEncoders:
	default:
		// Generated pools hold 13–19% as many strings as the file has
		// methods; a quarter covers them without a regrowth, and a pool
		// past it grows.
		e = &encodeScratch{
			pool:  make([]string, 0, len(f.methods)/4),
			index: make(map[string]uint32, len(f.methods)/4),
		}
	}
	defer e.release()
	poolBytes := 0
	intern := func(s string) uint32 {
		if i, ok := e.index[s]; ok {
			return i
		}
		i := uint32(len(e.pool))
		e.pool = append(e.pool, s)
		e.index[s] = i
		poolBytes += len(s)
		return i
	}

	varints := 0
	for _, m := range f.methods {
		varints += 4 + len(m.Params)
	}
	// refs are every method's pool indices in wire order (class, name,
	// return, params), one flat slice for the whole file: all its varints
	// but the param counts.
	refs := slices.Grow(e.refs[:0], varints-len(f.methods))
	for _, m := range f.methods {
		refs = append(refs, intern(m.Class), intern(m.Name), intern(m.Return))
		for _, p := range m.Params {
			refs = append(refs, intern(p))
		}
	}
	e.refs = refs

	// Presized for two-byte varints (exact or over for pools under 16k
	// strings of under 16k bytes), so the buffer rarely grows.
	b := slices.Grow(dst, 22+poolBytes+2*len(e.pool)+2*varints)
	b = append(b, sdexMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, sdexVersion)
	created := int64(0)
	if !f.Created.IsZero() && !f.Created.Equal(DefaultDexTime) {
		created = f.Created.Unix()
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(created))

	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.pool)))
	for _, s := range e.pool {
		b = codec.AppendString(b, s)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.methods)))
	for _, m := range f.methods {
		b = binary.AppendUvarint(b, uint64(refs[0]))
		b = binary.AppendUvarint(b, uint64(refs[1]))
		b = binary.AppendUvarint(b, uint64(refs[2]))
		b = binary.AppendUvarint(b, uint64(len(m.Params)))
		for _, p := range refs[3 : 3+len(m.Params)] {
			b = binary.AppendUvarint(b, uint64(p))
		}
		refs = refs[3+len(m.Params):]
	}
	return b
}

// encodeScratch is AppendEncode's working set: the string pool in
// interning order, each pool string's index (a pool index fits the
// format's uint32 pool count) and the flat reference list.
type encodeScratch struct {
	pool  []string
	index map[string]uint32
	refs  []uint32
}

// idleEncoders holds encode scratch between encodes, one for each
// processor that may be encoding at once; like idleCheckers, it is not
// emptied at every GC as a sync.Pool would be.
var idleEncoders = make(chan *encodeScratch, runtime.GOMAXPROCS(0))

// release keeps the scratch for the next encode unless it grew past
// Check's limits. The pool and index are cleared first, so an idle
// scratch holds no string of the file it encoded.
func (e *encodeScratch) release() {
	if len(e.pool) > maxIdleMethods || cap(e.refs) > 4*maxIdleMethods {
		return
	}
	clear(e.pool)
	e.pool = e.pool[:0]
	clear(e.index)
	select {
	case idleEncoders <- e:
	default:
	}
}

// errMalformed is what the cursor's failures (short field, bad varint,
// oversized count, trailing bytes) wrap, keeping them in the package's
// "dex: ..." error style.
var errMalformed = errors.New("dex: malformed container")

// maxPresizedMethods caps the room Decode reserves from the method count.
// A method takes at least four input bytes (three pool references and a
// parameter count) and ~300 bytes of File, arenas included, so Decode
// presizes for no more methods than the bytes left could hold, and past
// the cap the File grows as it fills.
const maxPresizedMethods = 1 << 16

// maxSignatureExpansion bounds the signature bytes a container may render
// per byte of its own. A pool string is stored once but may be referenced
// by every method, so without a bound a few kilobytes (one long string
// used as the parameter of thousands of methods) render gigabytes of
// signatures. Generated apps render about 7 bytes per container byte, and
// a long class name shared by many short methods about 30.
const maxSignatureExpansion = 64

// visitor receives what walk reads from a container: the header once,
// then every method in definition order.
type visitor interface {
	// start is called once the method count is known; presize is how
	// many methods the bytes left could hold, capped at
	// maxPresizedMethods.
	start(created time.Time, count, presize int)
	// method receives one method. Its Params are walk's scratch, valid
	// only for the call, and with alias set so are its strings.
	method(m Method) error
}

// walk is the one SDEX reader: Decode and Check both run it, so they
// accept and reject exactly the same containers. It is strict: a field
// cut short, a count larger than the bytes left, a pool index out of
// range, signatures expanding past maxSignatureExpansion, a method v
// rejects, and bytes after the last method all fail. With alias set the
// pool's strings point into data instead of copying it, for a visitor
// that keeps none of them.
func walk(data []byte, v visitor, alias bool) error {
	r := codec.NewReader(data, errMalformed)
	if magic := r.Take(len(sdexMagic)); r.Err() == nil && [4]byte(magic) != sdexMagic {
		return fmt.Errorf("dex: bad magic %q, want %q", magic, sdexMagic[:])
	}
	if version := r.Uint16(); r.Err() == nil && version != sdexVersion {
		return fmt.Errorf("dex: unsupported container version %d", version)
	}
	created := DefaultDexTime
	if createdUnix := int64(r.Uint64()); createdUnix != 0 {
		created = time.Unix(createdUnix, 0).UTC()
	}

	pool := make([]string, r.Count(uint64(r.Uint32())))
	for i := range pool {
		if b := r.Bytes(); alias {
			pool[i] = unsafe.String(unsafe.SliceData(b), len(b))
		} else {
			pool[i] = string(b)
		}
	}
	lookup := func(what string, i int) string {
		idx := r.Uvarint()
		if r.Err() == nil && idx >= uint64(len(pool)) {
			r.Failf("method %d %s index %d out of pool range %d", i, what, idx, len(pool))
		}
		if r.Err() != nil {
			return ""
		}
		return pool[idx]
	}
	methodCount := r.Count(uint64(r.Uint32()))
	v.start(created, methodCount, min(methodCount, r.Remaining()/4, maxPresizedMethods))
	sigBudget := maxSignatureExpansion * len(data)
	var params []string
	for i := 0; i < methodCount; i++ {
		m := Method{Class: lookup("class", i), Name: lookup("name", i), Return: lookup("return", i)}
		params = params[:0]
		for j := r.Length(); j > 0; j-- {
			params = append(params, lookup("param", i))
		}
		m.Params = params
		if sigBudget -= signatureLen(m); r.Err() == nil && sigBudget < 0 {
			r.Failf("method %d: signatures exceed %d bytes per container byte", i, maxSignatureExpansion)
		}
		if r.Err() != nil {
			return r.Err()
		}
		if err := v.method(m); err != nil {
			return fmt.Errorf("dex: decoding method %d: %w", i, err)
		}
	}
	return r.Finish()
}

// Decode parses an SDEX container produced by Encode. It rejects what
// walk rejects, duplicate signatures included.
func Decode(data []byte) (*File, error) {
	var d decoder
	if err := walk(data, &d, false); err != nil {
		return nil, err
	}
	return d.f, nil
}

// decoder is Decode's visitor: it builds the File.
type decoder struct{ f *File }

func (d *decoder) start(created time.Time, count, presize int) {
	d.f = newFile(created, presize, count)
}

// method copies m.Params into the file's arena, so walk's scratch may be
// reused.
func (d *decoder) method(m Method) error { return d.f.AddMethod(m) }
