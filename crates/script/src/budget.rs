//! Execution resource budgets.
//!
//! The interpreter's original governor was a single step-fuel counter. A
//! hostile page can exhaust other resources long before it runs out of
//! steps: allocation bombs grow the heap, string bombs double a string each
//! iteration (O(2^n) bytes for n steps), and recursion burns native stack.
//! [`ResourceBudget`] bounds each axis explicitly:
//!
//! - **steps** — one unit per statement/expression evaluated (the original
//!   fuel model);
//! - **heap cells** — objects allocated *after* the budget was installed
//!   (the embedder's own API surface is not charged to the page);
//! - **string bytes** — cumulative bytes produced by string concatenation,
//!   the only unbounded-allocation primitive in the language subset;
//! - **call depth** — interpreter recursion, which maps onto native stack.
//!
//! Budgets are installed per phase ([`Interpreter::set_budget`]): the
//! browser gives the initial script run, event dispatch, and timer drain
//! each their own allowance, so a page that burns its load budget can still
//! respond to interaction (partial feature logs instead of a lost visit).
//!
//! [`Interpreter::set_budget`]: crate::Interpreter::set_budget

/// Per-phase execution allowance. All limits are *relative to the moment the
/// budget is installed*: heap cells already live and string bytes already
/// built are not charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Statement/expression evaluations allowed.
    pub max_steps: u64,
    /// Heap objects the governed code may allocate.
    pub max_heap_cells: usize,
    /// Cumulative bytes of string data concatenation may produce.
    pub max_string_bytes: u64,
    /// Maximum interpreter call depth.
    pub max_call_depth: u32,
}

impl ResourceBudget {
    /// An effectively unlimited budget for every axis except steps — the
    /// historical behavior of `set_fuel`.
    pub fn steps_only(max_steps: u64) -> Self {
        ResourceBudget {
            max_steps,
            ..ResourceBudget::default()
        }
    }
}

impl Default for ResourceBudget {
    /// Generous defaults: a well-behaved page never notices the governor.
    fn default() -> Self {
        ResourceBudget {
            max_steps: 5_000_000,
            max_heap_cells: 1 << 20,
            max_string_bytes: 16 << 20,
            max_call_depth: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interpreter, RuntimeError, ScriptError};

    fn run_with(budget: ResourceBudget, src: &str) -> Result<crate::Value, ScriptError> {
        let mut interp = Interpreter::new();
        interp.set_budget(&budget);
        interp.run_source(src)
    }

    fn runtime_err(budget: ResourceBudget, src: &str) -> RuntimeError {
        match run_with(budget, src) {
            Err(ScriptError::Runtime(e)) => e,
            other => panic!("expected runtime error, got {other:?}"),
        }
    }

    #[test]
    fn infinite_loop_trips_step_budget() {
        let b = ResourceBudget::steps_only(10_000);
        assert_eq!(
            runtime_err(b, "while (true) { var x = 1; }"),
            RuntimeError::OutOfFuel
        );
    }

    #[test]
    fn allocation_bomb_trips_heap_budget() {
        let b = ResourceBudget {
            max_heap_cells: 500,
            ..ResourceBudget::default()
        };
        let src = "var a = []; var i = 0; while (true) { a[i] = { x: i }; i = i + 1; }";
        assert_eq!(runtime_err(b, src), RuntimeError::HeapExhausted);
    }

    #[test]
    fn string_bomb_trips_string_budget_quickly() {
        let b = ResourceBudget {
            max_string_bytes: 1 << 16,
            ..ResourceBudget::default()
        };
        let mut interp = Interpreter::new();
        interp.set_budget(&b);
        let r = interp.run_source("var s = 'xxxxxxxx'; while (true) { s = s + s; }");
        assert!(matches!(
            r,
            Err(ScriptError::Runtime(RuntimeError::StringOverflow))
        ));
        // Doubling means the trap fires after O(log budget) steps, long
        // before the step budget would.
        assert!(interp.fuel() > 4_000_000, "fuel left: {}", interp.fuel());
        // The cumulative counter never races far past the allowance.
        assert!(interp.string_bytes_allocated() <= 2 * (1 << 16));
    }

    #[test]
    fn unbounded_recursion_trips_depth_budget() {
        let b = ResourceBudget {
            max_call_depth: 32,
            ..ResourceBudget::default()
        };
        assert_eq!(
            runtime_err(b, "function r(n) { return r(n + 1); } r(0);"),
            RuntimeError::StackOverflow
        );
    }

    #[test]
    fn budget_phase_resets_allowances() {
        let mut interp = Interpreter::new();
        let b = ResourceBudget {
            max_heap_cells: 50,
            ..ResourceBudget::default()
        };
        interp.set_budget(&b);
        let src = "var a = []; var i = 0; while (i < 40) { a[i] = {}; i = i + 1; }";
        assert!(interp.run_source(src).is_ok());
        // A fresh phase gets a fresh allowance relative to the grown heap.
        interp.set_budget(&b);
        let src2 = "var c = []; var j = 0; while (j < 40) { c[j] = {}; j = j + 1; }";
        assert!(
            interp.run_source(src2).is_ok(),
            "second phase was charged for the first"
        );
    }

    #[test]
    fn trap_classification() {
        assert!(RuntimeError::OutOfFuel.is_budget_trap());
        assert!(RuntimeError::StackOverflow.is_budget_trap());
        assert!(RuntimeError::HeapExhausted.is_budget_trap());
        assert!(RuntimeError::StringOverflow.is_budget_trap());
        assert!(!RuntimeError::TypeError(String::new()).is_budget_trap());
        assert!(!RuntimeError::ReferenceError(String::new()).is_budget_trap());
    }

    #[test]
    fn deeply_nested_source_is_a_parse_error_not_a_crash() {
        for bomb in [
            format!("var x = {}1{};", "(".repeat(5_000), ")".repeat(5_000)),
            format!("var a = {}1{};", "[".repeat(5_000), "]".repeat(5_000)),
            format!("var n = {}1;", "!".repeat(5_000)),
            "{".repeat(5_000),
        ] {
            match crate::parser::parse(&bomb) {
                Err(e) => assert!(e.to_string().contains("nesting too deep"), "{e}"),
                Ok(_) => panic!("nesting bomb parsed"),
            }
        }
    }

    #[test]
    fn first_call_parses_at_the_depth_edge_on_a_crawl_thread_stack() {
        // A function body is parsed on its first call, on top of the
        // interpreter's stack. Here the innermost of the default 64 nested
        // calls is the first call of a body nested to the parser's depth
        // edge, on a thread with the default 2 MiB stack crawl threads get.
        use crate::parser::parse;
        let deep = |parens: usize| {
            let (open, close) = ("(".repeat(parens), ")".repeat(parens));
            format!("function deep() {{ return {open}1{close}; }}\n")
        };
        assert!(parse(&deep(63)).is_err(), "62 is the edge");
        let rec = "function rec(k) { if (k > 1) { return rec(k - 1); } return deep(); }";
        // `rec(63)` makes 64 nested calls, the limit; `rec(64)` one more.
        let sources = [63, 64].map(|k| format!("{}{rec}\nrec({k});", deep(62)));
        let run = move || {
            for (src, fits) in sources.iter().zip([true, false]) {
                let program = parse(src).expect("parses");
                let tree_walk = crate::Interpreter::new().run(&program);
                let chunk = crate::compile(&program).expect("compiles");
                let vm = crate::run_chunk(&mut crate::Interpreter::new(), &chunk);
                for result in [tree_walk, vm] {
                    match (fits, result) {
                        (true, Ok(v)) => assert_eq!(v.to_number(), 1.0),
                        (false, Err(RuntimeError::StackOverflow)) => {}
                        (_, other) => panic!("{other:?}"),
                    }
                }
            }
        };
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(run);
        thread.expect("spawns").join().expect("fits the stack");
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let src = format!("var x = {}1{};", "(".repeat(40), ")".repeat(40));
        assert!(crate::parser::parse(&src).is_ok());
    }
}
