//! String interning.
//!
//! Feature names, standard abbreviations, URL components, and DOM tag/attr
//! names are repeated millions of times across a crawl; interning them turns
//! comparisons into integer equality and slashes memory.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Handle to a string in the process-wide atom table.
///
/// Unlike [`Symbol`], which belongs to one [`Interner`] instance, an `Atom`
/// is valid everywhere in the process: two `Atom`s compare equal iff their
/// strings are equal, regardless of which thread interned them. This is what
/// lets the script engine compile identifiers and property names down to
/// `u32` comparisons while sharing parsed programs across worker threads.
///
/// Atom *ids* depend on interning order, which depends on thread scheduling.
/// They are therefore only ever used for equality and hashing — never for
/// ordering or output. Anything user-visible resolves back to the string
/// (see [`Atom::as_str`]) and sorts by that.
///
/// # Examples
///
/// ```
/// use bfu_util::Atom;
/// let a = Atom::intern("querySelector");
/// let b = Atom::intern("querySelector");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "querySelector");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom(u32);

/// The process-wide atom table. Strings are leaked on first intern so
/// resolution is a plain slice index returning `&'static str`; the table is
/// bounded by the set of distinct identifiers/property names the workload
/// produces (script sources are generated from a finite template pool, so
/// this is small and stable in practice).
struct AtomTable {
    map: HashMap<&'static str, Atom>,
    strings: Vec<&'static str>,
}

fn atom_table() -> &'static RwLock<AtomTable> {
    static TABLE: OnceLock<RwLock<AtomTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(AtomTable {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Atom {
    /// Intern a string in the global table. Read-lock fast path for strings
    /// already present; write lock (with a re-check, since another thread may
    /// have won the race) only for first sightings.
    pub fn intern(s: &str) -> Atom {
        let table = atom_table();
        if let Ok(t) = table.read() {
            if let Some(&atom) = t.map.get(s) {
                return atom;
            }
        }
        let mut t = match table.write() {
            Ok(t) => t,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(&atom) = t.map.get(s) {
            return atom;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let atom = Atom(u32::try_from(t.strings.len()).unwrap_or(u32::MAX));
        t.strings.push(leaked);
        t.map.insert(leaked, atom);
        atom
    }

    /// Look up a string without interning it. `None` means no atom for this
    /// string exists anywhere in the process — useful for read paths (e.g.
    /// property lookups of absent keys) that must not grow the table.
    pub fn get(s: &str) -> Option<Atom> {
        let t = match atom_table().read() {
            Ok(t) => t,
            Err(poisoned) => poisoned.into_inner(),
        };
        t.map.get(s).copied()
    }

    /// The interned string. O(1); valid for the life of the process.
    pub fn as_str(self) -> &'static str {
        let t = match atom_table().read() {
            Ok(t) => t,
            Err(poisoned) => poisoned.into_inner(),
        };
        t.strings.get(self.0 as usize).copied().unwrap_or("")
    }

    /// The raw table index. For diagnostics only — ids are scheduling-
    /// dependent and must never influence measured output.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Prints the name (`Atom("x")`), never the scheduling-dependent id, so
/// diagnostics that embed an atom read the same in every run.
impl std::fmt::Debug for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Atom").field(&self.as_str()).finish()
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Handle to an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A deduplicating string table.
///
/// # Examples
///
/// ```
/// use bfu_util::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("createElement");
/// let b = i.intern("createElement");
/// assert_eq!(a, b);
/// assert_eq!(i.resolve(a), "createElement");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<String, Symbol>,
    strings: Vec<String>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.strings.len()).expect("interner overflow"));
        self.strings.push(s.to_owned());
        self.map.insert(s.to_owned(), sym);
        sym
    }

    /// Look up a symbol without interning. `None` if never interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// The string for a symbol. Panics on a symbol from another interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        let c = i.intern("x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let syms: Vec<_> = ["foo", "bar", "baz"].iter().map(|s| i.intern(s)).collect();
        assert_eq!(i.resolve(syms[0]), "foo");
        assert_eq!(i.resolve(syms[1]), "bar");
        assert_eq!(i.resolve(syms[2]), "baz");
    }

    #[test]
    fn atoms_are_global_and_stable() {
        let a = Atom::intern("globalAtomTest");
        let b = Atom::intern("globalAtomTest");
        let c = Atom::intern("globalAtomTestOther");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "globalAtomTest");
        assert_eq!(c.as_str(), "globalAtomTestOther");
    }

    #[test]
    fn atom_debug_prints_the_name() {
        let a = Atom::intern("atomDebugName");
        assert_eq!(format!("{a:?}"), r#"Atom("atomDebugName")"#);
        assert_eq!(format!("{:?}", Some(a)), r#"Some(Atom("atomDebugName"))"#);
    }

    #[test]
    fn atoms_agree_across_threads() {
        let here = Atom::intern("crossThreadAtom");
        let there = std::thread::spawn(|| Atom::intern("crossThreadAtom"))
            .join()
            .unwrap();
        assert_eq!(here, there);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("nope").is_none());
        i.intern("yes");
        assert!(i.get("yes").is_some());
        assert_eq!(i.len(), 1);
    }
}
