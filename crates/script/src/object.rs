//! Heap: objects, prototype chains, and watchpoints.
//!
//! Two capabilities carry the whole instrumentation story from §4.2 of the
//! paper, and both live here:
//!
//! 1. **Prototype chains.** Method lookup on an object walks `proto` links,
//!    so overwriting `Document.prototype.createElement` with a wrapper is
//!    observed by every document object — exactly how the paper's extension
//!    shims methods.
//! 2. **Watchpoints.** `Object.watch`-style hooks fire on property writes to
//!    a watched object, which is how the paper counts property-write features
//!    on singletons (`window`, `navigator`, `document`).

use crate::ast::FunctionDef;
use crate::value::Value;
use bfu_util::{define_id, Atom};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

define_id!(
    /// Heap object index.
    ObjId,
    "obj"
);

define_id!(
    /// Environment (scope) index, used by closures.
    EnvId,
    "env"
);

/// Property key: an interned atom (always a string in the language, as in
/// pre-symbol JavaScript, but compared and hashed as a `u32`).
pub type PropKey = Atom;

/// How a function object is implemented.
#[derive(Clone)]
pub enum Callable {
    /// A host (native) function, identified by its registry index.
    Native(u32),
    /// A script closure: definition plus captured environment.
    Script {
        /// Shared function definition.
        def: Arc<FunctionDef>,
        /// Captured scope.
        env: EnvId,
    },
    /// A compiled closure: a lazily-lowered function plus captured
    /// environment. Allocation is an `Arc` clone; the body is lowered to
    /// bytecode on first call and memoized in the shared chunk.
    Compiled {
        /// Shared function (definition + memoized lowered body).
        func: Arc<crate::compile::LazyFunc>,
        /// Captured scope.
        env: EnvId,
    },
}

impl std::fmt::Debug for Callable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Callable::Native(i) => write!(f, "Native({i})"),
            Callable::Script { def, .. } => {
                write!(
                    f,
                    "Script({})",
                    def.name.map(Atom::as_str).unwrap_or("<anon>")
                )
            }
            Callable::Compiled { func, .. } => {
                write!(
                    f,
                    "Compiled({})",
                    func.name().map(Atom::as_str).unwrap_or("<anon>")
                )
            }
        }
    }
}

/// One heap object.
#[derive(Debug, Clone, Default)]
pub struct Object {
    /// Own properties.
    pub props: HashMap<PropKey, Value>,
    /// Prototype link.
    pub proto: Option<ObjId>,
    /// Present if the object is callable.
    pub callable: Option<Callable>,
    /// Watch handler (a callable object id) invoked on every property write:
    /// `handler(propName, oldValue, newValue)`, mirroring `Object.watch`.
    pub watch_all: Option<ObjId>,
    /// Opaque host tag: lets the embedder associate an object with a host
    /// entity (e.g. a DOM node id) without a side table.
    pub host_tag: Option<u64>,
}

/// log2 of the number of objects per heap chunk.
const CHUNK_BITS: u32 = 6;
/// Objects per heap chunk.
const CHUNK: usize = 1 << CHUNK_BITS;

/// The object heap.
///
/// Objects live in fixed-size chunks of `CHUNK` objects, each behind an
/// `Rc`. Cloning a heap copies only the chunk pointers, so the clone and the
/// original share every object. The first write to a shared chunk
/// ([`Heap::get_mut`], or [`Heap::alloc`] into a partly filled last chunk)
/// copies that chunk alone, so an embedder that starts many runs from one
/// booted heap pays per run only for the chunks the run writes. Object ids
/// are allocation indices either way: chunking changes neither ids nor
/// allocation order nor [`Heap::len`].
#[derive(Debug, Default, Clone)]
pub struct Heap {
    /// Every chunk but the last is full.
    chunks: Vec<Rc<Vec<Object>>>,
    /// Objects allocated so far.
    len: usize,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Allocate a plain object with the given prototype.
    pub fn alloc(&mut self, proto: Option<ObjId>) -> ObjId {
        let id = ObjId::from_usize(self.len);
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Rc::new(Vec::with_capacity(CHUNK)));
        }
        let last = self.chunks.len() - 1;
        let chunk = Rc::make_mut(&mut self.chunks[last]);
        // A partial chunk copied from a shared one holds only its objects;
        // reserve the rest of the chunk at once rather than push by push.
        chunk.reserve_exact(CHUNK - chunk.len());
        chunk.push(Object {
            proto,
            ..Object::default()
        });
        self.len += 1;
        id
    }

    /// Allocate a callable object.
    pub fn alloc_callable(&mut self, callable: Callable, proto: Option<ObjId>) -> ObjId {
        let id = self.alloc(proto);
        self.get_mut(id).callable = Some(callable);
        id
    }

    /// Borrow an object.
    pub fn get(&self, id: ObjId) -> &Object {
        let i = id.index();
        &self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }

    /// Mutably borrow an object. Copies the object's chunk first if another
    /// heap still shares it.
    pub fn get_mut(&mut self, id: ObjId) -> &mut Object {
        let i = id.index();
        &mut Rc::make_mut(&mut self.chunks[i >> CHUNK_BITS])[i & (CHUNK - 1)]
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether an object is callable.
    pub fn is_callable(&self, id: ObjId) -> bool {
        self.get(id).callable.is_some()
    }

    /// Read a property by atom, walking the prototype chain. `Undefined` if
    /// absent. This is the interpreter's hot path: every hop is a `u32`
    /// hash-map probe, no string comparison.
    pub fn get_prop_atom(&self, id: ObjId, key: Atom) -> Value {
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(o) = cur {
            let obj = self.get(o);
            if let Some(v) = obj.props.get(&key) {
                return v.clone();
            }
            cur = obj.proto;
            hops += 1;
            if hops > 64 {
                break; // defensive: cyclic prototype chains
            }
        }
        Value::Undefined
    }

    /// Read a property by string, walking the prototype chain. `Undefined`
    /// if absent. A key nobody ever interned cannot exist on any object, so
    /// this never grows the atom table.
    pub fn get_prop(&self, id: ObjId, key: &str) -> Value {
        match Atom::get(key) {
            Some(atom) => self.get_prop_atom(id, atom),
            None => Value::Undefined,
        }
    }

    /// The object (self or ancestor) that *owns* `key`, if any.
    pub fn owner_of_prop_atom(&self, id: ObjId, key: Atom) -> Option<ObjId> {
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(o) = cur {
            let obj = self.get(o);
            if obj.props.contains_key(&key) {
                return Some(o);
            }
            cur = obj.proto;
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        None
    }

    /// The object (self or ancestor) that *owns* `key`, if any.
    pub fn owner_of_prop(&self, id: ObjId, key: &str) -> Option<ObjId> {
        self.owner_of_prop_atom(id, Atom::get(key)?)
    }

    /// Write an own property by atom **without** firing watchpoints.
    /// Returns the old own value.
    pub fn set_prop_raw_atom(&mut self, id: ObjId, key: Atom, value: Value) -> Value {
        self.get_mut(id)
            .props
            .insert(key, value)
            .unwrap_or(Value::Undefined)
    }

    /// Write an own property **without** firing watchpoints. Returns the old
    /// own value. Used by the embedder and by watch handlers themselves.
    pub fn set_prop_raw(&mut self, id: ObjId, key: &str, value: Value) -> Value {
        self.set_prop_raw_atom(id, Atom::intern(key), value)
    }

    /// Write an own property by atom, reporting whether a watchpoint must
    /// fire.
    ///
    /// Returns `(old_value, Some(handler))` when the object is watched; the
    /// interpreter is responsible for invoking the handler (it owns the call
    /// machinery). The write itself always happens.
    pub fn set_prop_atom(&mut self, id: ObjId, key: Atom, value: Value) -> (Value, Option<ObjId>) {
        let old = self.set_prop_raw_atom(id, key, value);
        let handler = self.get(id).watch_all;
        (old, handler)
    }

    /// Write an own property, reporting whether a watchpoint must fire (see
    /// [`Heap::set_prop_atom`]).
    pub fn set_prop(&mut self, id: ObjId, key: &str, value: Value) -> (Value, Option<ObjId>) {
        self.set_prop_atom(id, Atom::intern(key), value)
    }

    /// Install a watch handler on `id` (fires for every property write).
    pub fn watch(&mut self, id: ObjId, handler: ObjId) {
        self.get_mut(id).watch_all = Some(handler);
    }

    /// Remove the watch handler.
    pub fn unwatch(&mut self, id: ObjId) {
        self.get_mut(id).watch_all = None;
    }

    /// Own property names (sorted by *string*, for deterministic iteration —
    /// atom ids are scheduling-dependent and must never drive ordering).
    pub fn own_keys(&self, id: ObjId) -> Vec<&'static str> {
        let mut keys: Vec<&'static str> = self.get(id).props.keys().map(|a| a.as_str()).collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_chain_lookup() {
        let mut heap = Heap::new();
        let proto = heap.alloc(None);
        heap.set_prop_raw(proto, "shared", Value::Num(7.0));
        let child = heap.alloc(Some(proto));
        assert!(matches!(heap.get_prop(child, "shared"), Value::Num(n) if n == 7.0));
        assert_eq!(heap.owner_of_prop(child, "shared"), Some(proto));
        // Shadowing: write goes to the child, proto unchanged.
        heap.set_prop_raw(child, "shared", Value::Num(9.0));
        assert!(matches!(heap.get_prop(child, "shared"), Value::Num(n) if n == 9.0));
        assert!(matches!(heap.get_prop(proto, "shared"), Value::Num(n) if n == 7.0));
    }

    #[test]
    fn missing_prop_is_undefined() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        assert!(matches!(heap.get_prop(o, "nope"), Value::Undefined));
        assert_eq!(heap.owner_of_prop(o, "nope"), None);
    }

    #[test]
    fn cyclic_prototypes_dont_hang() {
        let mut heap = Heap::new();
        let a = heap.alloc(None);
        let b = heap.alloc(Some(a));
        heap.get_mut(a).proto = Some(b);
        assert!(matches!(heap.get_prop(a, "x"), Value::Undefined));
    }

    #[test]
    fn watchpoints_reported_on_set() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        let handler = heap.alloc_callable(Callable::Native(0), None);
        heap.watch(o, handler);
        let (old, h) = heap.set_prop(o, "x", Value::Num(1.0));
        assert!(matches!(old, Value::Undefined));
        assert_eq!(h, Some(handler));
        let (old, _) = heap.set_prop(o, "x", Value::Num(2.0));
        assert!(matches!(old, Value::Num(n) if n == 1.0));
        heap.unwatch(o);
        let (_, h) = heap.set_prop(o, "x", Value::Num(3.0));
        assert_eq!(h, None);
    }

    #[test]
    fn raw_set_bypasses_watch() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        let handler = heap.alloc_callable(Callable::Native(0), None);
        heap.watch(o, handler);
        heap.set_prop_raw(o, "x", Value::Num(1.0));
        // No way to observe a fire here because set_prop_raw returns no
        // handler — that's the point.
        assert!(matches!(heap.get_prop(o, "x"), Value::Num(n) if n == 1.0));
    }

    #[test]
    fn own_keys_sorted() {
        let mut heap = Heap::new();
        let o = heap.alloc(None);
        heap.set_prop_raw(o, "b", Value::Num(1.0));
        heap.set_prop_raw(o, "a", Value::Num(2.0));
        assert_eq!(heap.own_keys(o), vec!["a", "b"]);
    }

    /// A heap of three full chunks and a half-filled fourth, each object
    /// tagged with its own id.
    fn chunked_heap() -> Heap {
        let mut heap = Heap::new();
        for i in 0..3 * CHUNK + CHUNK / 2 {
            let id = heap.alloc(None);
            assert_eq!(id.index(), i);
            heap.set_prop_raw(id, "n", Value::Num(i as f64));
        }
        assert_eq!(heap.chunks.len(), 4);
        heap
    }

    fn shared(a: &Heap, b: &Heap) -> Vec<bool> {
        a.chunks
            .iter()
            .zip(&b.chunks)
            .map(|(x, y)| Rc::ptr_eq(x, y))
            .collect()
    }

    fn num(heap: &Heap, id: ObjId, key: &str) -> f64 {
        match heap.get_prop(id, key) {
            Value::Num(n) => n,
            other => panic!("{key} on {id:?} is {other:?}"),
        }
    }

    #[test]
    fn clone_shares_every_chunk() {
        let heap = chunked_heap();
        let copy = heap.clone();
        assert_eq!(copy.len(), heap.len());
        assert_eq!(shared(&heap, &copy), vec![true; 4]);
    }

    #[test]
    fn write_on_clone_unshares_only_that_chunk() {
        let heap = chunked_heap();
        let mut copy = heap.clone();
        let target = ObjId::from_usize(CHUNK + 5);
        copy.set_prop_raw(target, "n", Value::Num(-1.0));
        assert_eq!(shared(&heap, &copy), vec![true, false, true, true]);
        assert_eq!(num(&copy, target, "n"), -1.0);
        assert_eq!(num(&heap, target, "n"), (CHUNK + 5) as f64);
        // A second write to the now-private chunk copies nothing more.
        copy.watch(ObjId::from_usize(CHUNK), target);
        assert_eq!(shared(&heap, &copy), vec![true, false, true, true]);
        assert_eq!(heap.get(ObjId::from_usize(CHUNK)).watch_all, None);
    }

    #[test]
    fn alloc_on_clone_leaves_the_original_partial_chunk() {
        let heap = chunked_heap();
        let before = heap.chunks[3].len();
        let mut copy = heap.clone();
        let id = copy.alloc(Some(ObjId::new(0)));
        assert_eq!(id.index(), heap.len());
        assert_eq!(copy.len(), heap.len() + 1);
        assert_eq!(heap.len(), 3 * CHUNK + CHUNK / 2);
        assert_eq!(heap.chunks[3].len(), before);
        assert_eq!(shared(&heap, &copy), vec![true, true, true, false]);
        // The new object inherits through a shared chunk.
        assert_eq!(num(&copy, id, "n"), 0.0);

        // Filling the clone past the chunk boundary starts a fresh chunk;
        // the shared full chunks stay shared.
        for _ in 0..CHUNK {
            copy.alloc(None);
        }
        assert_eq!(copy.chunks.len(), 5);
        assert_eq!(shared(&heap, &copy), vec![true, true, true, false]);
        assert_eq!(heap.chunks.len(), 4);
    }

    #[test]
    fn writes_to_the_original_do_not_reach_the_clone() {
        let mut heap = chunked_heap();
        let copy = heap.clone();
        let first = ObjId::new(0);
        heap.set_prop_raw(first, "n", Value::Num(99.0));
        heap.get_mut(first).host_tag = Some(7);
        let added = heap.alloc(None);
        assert_eq!(num(&copy, first, "n"), 0.0);
        assert_eq!(copy.get(first).host_tag, None);
        assert_eq!(copy.len(), added.index());
        assert_eq!(shared(&heap, &copy), vec![false, true, true, false]);
    }

    #[test]
    fn callable_flag() {
        let mut heap = Heap::new();
        let f = heap.alloc_callable(Callable::Native(3), None);
        let o = heap.alloc(None);
        assert!(heap.is_callable(f));
        assert!(!heap.is_callable(o));
    }
}
