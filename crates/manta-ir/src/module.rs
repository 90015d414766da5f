//! Modules and globals.

use std::collections::HashMap;

use crate::externs::ExternDecl;
use crate::function::Function;
use crate::ids::{ExternId, FuncId, GlobalId};

/// A module-level global variable (a `.data`/`.bss` region).
#[derive(Clone, PartialEq, Debug)]
pub struct Global {
    /// This global's id.
    pub id: GlobalId,
    /// Symbol name (synthetic; real binaries are stripped).
    pub name: String,
    /// Size of the region in bytes.
    pub size: u64,
}

/// A whole lifted binary: functions, globals and external declarations.
#[derive(Clone, Debug)]
pub struct Module {
    name: String,
    functions: Vec<Function>,
    globals: Vec<Global>,
    externs: Vec<ExternDecl>,
    extern_by_name: HashMap<String, ExternId>,
}

impl Module {
    /// Creates an empty module. Library users should prefer
    /// [`crate::ModuleBuilder`].
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
            externs: Vec::new(),
            extern_by_name: HashMap::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function with id `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a function of this module.
    pub fn function(&self, f: FuncId) -> &Function {
        &self.functions[f.index()]
    }

    /// Mutable access to the function with id `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a function of this module.
    pub fn function_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.functions[f.index()]
    }

    /// Iterates over all functions in id order.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter()
    }

    /// Number of functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// The global with id `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a global of this module.
    pub fn global(&self, g: GlobalId) -> &Global {
        &self.globals[g.index()]
    }

    /// Iterates over all globals.
    pub fn globals(&self) -> impl Iterator<Item = &Global> {
        self.globals.iter()
    }

    /// The external declaration with id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an external of this module.
    pub fn extern_decl(&self, e: ExternId) -> &ExternDecl {
        &self.externs[e.index()]
    }

    /// Iterates over all external declarations.
    pub fn externs(&self) -> impl Iterator<Item = &ExternDecl> {
        self.externs.iter()
    }

    /// Looks up an external declaration by name.
    pub fn extern_by_name(&self, name: &str) -> Option<ExternId> {
        self.extern_by_name.get(name).copied()
    }

    /// All functions whose address is taken (the indirect-call target
    /// candidate set of §5.1).
    pub fn address_taken_functions(&self) -> Vec<FuncId> {
        self.functions
            .iter()
            .filter(|f| f.is_address_taken())
            .map(|f| f.id())
            .collect()
    }

    /// Total instruction count across functions (a proxy for binary size;
    /// the evaluation reports KLoC-like scale from this).
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }

    // ---- mutation, used by the builder, the parser and the lifter ----

    pub(crate) fn push_function(&mut self, f: Function) -> FuncId {
        let id = f.id();
        debug_assert_eq!(id.index(), self.functions.len());
        self.functions.push(f);
        id
    }

    pub(crate) fn push_global(&mut self, name: String, size: u64) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(Global { id, name, size });
        id
    }

    pub(crate) fn push_extern(&mut self, decl: ExternDecl) -> ExternId {
        let id = decl.id;
        debug_assert_eq!(id.index(), self.externs.len());
        self.extern_by_name.insert(decl.name.clone(), id);
        self.externs.push(decl);
        id
    }

    /// Declares an external function via [`crate::ExternRegistry`].
    /// Existing declarations are reused by name.
    pub(crate) fn declare_extern(
        &mut self,
        name: &str,
        fallback_params: &[crate::types::Width],
        fallback_ret: Option<crate::types::Width>,
    ) -> ExternId {
        if let Some(e) = self.extern_by_name(name) {
            return e;
        }
        let id = self.next_extern_id();
        self.push_extern(crate::externs::ExternRegistry::declare(
            id,
            name,
            fallback_params,
            fallback_ret,
        ))
    }

    /// Next function id to be assigned.
    pub(crate) fn next_func_id(&self) -> FuncId {
        FuncId::from_index(self.functions.len())
    }

    /// Next extern id to be assigned.
    pub(crate) fn next_extern_id(&self) -> ExternId {
        ExternId::from_index(self.externs.len())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ModuleBuilder;
    use crate::types::Width;

    #[test]
    fn module_lookup() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, fb) = mb.function("alpha", &[Width::W64], None);
        mb.finish_function(fb);
        let g = mb.global("tbl", 64);
        let e = mb.extern_fn("malloc", &[], None);
        let m = mb.finish();
        assert_eq!(m.name(), "m");
        assert_eq!(m.function(fid).name(), "alpha");
        assert!(m.function_by_name("alpha").is_some());
        assert!(m.function_by_name("beta").is_none());
        assert_eq!(m.global(g).size, 64);
        assert_eq!(m.extern_by_name("malloc"), Some(e));
        assert_eq!(m.extern_by_name("free"), None);
    }

    #[test]
    fn address_taken_set() {
        let mut mb = ModuleBuilder::new("m");
        let (f1, fb1) = mb.function("a", &[], None);
        mb.finish_function(fb1);
        let (_f2, fb2) = mb.function("b", &[], None);
        mb.finish_function(fb2);
        let mut m = mb.finish();
        assert!(m.address_taken_functions().is_empty());
        m.function_mut(f1).set_address_taken(true);
        assert_eq!(m.address_taken_functions(), vec![f1]);
    }
}
