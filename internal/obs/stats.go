package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"unsafe"
)

// A layer states its counters and gauges once, as the fields of its
// exported Stats struct, each tagged with its metric name:
//
//	type Stats struct {
//		ShufflesInitiated uint64 `obs:"nylon_shuffles_initiated_total"`
//		CircuitsOpen      int64  `obs:"wcl_circuits_open,gauge"`
//	}
//
// The layer holds that struct by value, updates its fields with Inc,
// Add and Set, answers Stats() with a copy of it, and — when it has a
// scope — hands it to Register once at construction. The registry then
// reads the fields in place at export time.
//
// The fields keep plain integer types because Stats is also the
// snapshot type callers read. Every write is atomic and so is every
// registry read; the plain copy in Stats() runs on the goroutine that
// owns the layer, the only one that writes it.

// word is the type of a Stats field: a uint64 counter or gauge, or an
// int64 gauge.
type word interface{ uint64 | int64 }

// Inc adds one to a Stats field. Atomic and allocation-free.
func Inc[T word](p *T) { Add(p, 1) }

// Add adds d to a Stats field (a negative d lowers an int64 gauge).
// Atomic and allocation-free.
func Add[T word](p *T, d T) { atomic.AddUint64((*uint64)(unsafe.Pointer(p)), uint64(d)) }

// Set stores v in a Stats gauge field. Atomic and allocation-free.
func Set[T word](p *T, v T) { atomic.StoreUint64((*uint64)(unsafe.Pointer(p)), uint64(v)) }

// Register exports every field of the struct st points to under the
// scope: a field tagged `obs:"name"` as a counter, `obs:"name,gauge"`
// as a gauge. Every field must be a tagged uint64 or int64. The struct
// must outlive the registry's use of it (it is a field of the layer's
// own long-lived state); the registry reads it with atomic loads.
// Registering a name twice under the same labels — nodes sharing one
// scope, or a group instance rejoined — exports the sum of the fields.
// No-op on a nil scope.
func Register(sc *Scope, st any) {
	if sc == nil {
		return
	}
	v := reflect.ValueOf(st)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: Register needs a pointer to a struct, got %T", st))
	}
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		tag, ok := f.Tag.Lookup("obs")
		name, opt, _ := strings.Cut(tag, ",")
		kind := kindCounter
		if opt == "gauge" {
			kind = kindGauge
		}
		if !ok || name == "" || (opt != "" && opt != "gauge") {
			panic(fmt.Sprintf("obs: %s.%s needs an `obs:\"name\"` or `obs:\"name,gauge\"` tag", v.Type(), f.Name))
		}
		if k := f.Type.Kind(); k != reflect.Uint64 && k != reflect.Int64 {
			panic(fmt.Sprintf("obs: %s.%s is %s, want uint64 or int64", v.Type(), f.Name, f.Type))
		}
		p := (*uint64)(v.Field(i).Addr().UnsafePointer())
		sc.reg.register(name, sc.labels, kind, func(m *metric) { m.words.Store(appended(m.words.Load(), p)) })
	}
}
