//! Type intervals: the `(F↑, F↓)` pair maintained for every variable and
//! memory object (paper Figure 5).
//!
//! `F↑` starts at `⊥` and climbs by *joining* every hint; `F↓` starts at
//! `⊤` and descends by *meeting* every hint. A variable with a single
//! consistent hint set ends with `F↑ = F↓`; conflicting hints leave a
//! non-trivial interval `F↓ <: F↑`; a variable with no hints keeps the
//! inverted sentinel `(⊥, ⊤)` — *unknown*.

use manta_ir::{Type, Width};

use crate::classify::VarClass;

/// The first layer of a type — what §6.1 evaluates for function
/// parameters, and what classification compares.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FirstLayer {
    /// `⊤`.
    Top,
    /// `⊥`.
    Bottom,
    /// Abstract register class of a width.
    Reg(Width),
    /// Abstract numeric class of a width.
    Num(Width),
    /// Concrete integer.
    Int(Width),
    /// Concrete 32-bit float.
    Float,
    /// Concrete 64-bit double.
    Double,
    /// Any pointer.
    Ptr,
    /// Any array.
    Array,
    /// Any object/struct.
    Object,
    /// Any function.
    Func,
}

impl FirstLayer {
    /// Extracts the first layer of `t`.
    pub fn of(t: &Type) -> FirstLayer {
        match t {
            Type::Top => FirstLayer::Top,
            Type::Bottom => FirstLayer::Bottom,
            Type::Reg(w) => FirstLayer::Reg(*w),
            Type::Num(w) => FirstLayer::Num(*w),
            Type::Int(w) => FirstLayer::Int(*w),
            Type::Float => FirstLayer::Float,
            Type::Double => FirstLayer::Double,
            Type::Ptr(_) => FirstLayer::Ptr,
            Type::Array(..) => FirstLayer::Array,
            Type::Object(_) => FirstLayer::Object,
            Type::Func(_) => FirstLayer::Func,
        }
    }

    /// Whether this layer is a concrete type constructor (not `⊤`/`⊥`/an
    /// abstract register or numeric class).
    pub fn is_concrete(self) -> bool {
        !matches!(
            self,
            FirstLayer::Top | FirstLayer::Bottom | FirstLayer::Reg(_) | FirstLayer::Num(_)
        )
    }
}

/// How resolved an interval is — the paper's `V_P` / `V_O` / `V_U`
/// trichotomy, evaluated on one interval.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Resolution {
    /// No hints were ever collected (`F↑ = ⊥ ∧ F↓ = ⊤`).
    Unknown,
    /// Resolved to a singleton. The payload is the representative type
    /// (the lower bound when bounds differ only below the first layer).
    Precise(Type),
    /// A non-trivial interval remains — over-approximated.
    Over,
}

impl Resolution {
    /// True for [`Resolution::Precise`].
    pub fn is_precise(&self) -> bool {
        matches!(self, Resolution::Precise(_))
    }
}

/// The `(F↑, F↓)` pair for one variable or object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeInterval {
    /// Upper bound `F↑`: join of all hints (starts at `⊥`).
    pub upper: Type,
    /// Lower bound `F↓`: meet of all hints (starts at `⊤`).
    pub lower: Type,
}

impl Default for TypeInterval {
    fn default() -> Self {
        Self::unknown()
    }
}

impl TypeInterval {
    /// The no-information sentinel `(⊥, ⊤)`.
    pub fn unknown() -> TypeInterval {
        TypeInterval {
            upper: Type::Bottom,
            lower: Type::Top,
        }
    }

    /// An interval resolved exactly to `t`.
    pub fn exact(t: Type) -> TypeInterval {
        TypeInterval {
            upper: t.clone(),
            lower: t,
        }
    }

    /// The conservative *any-type* interval `(⊤, ⊥)` that unknown
    /// variables are widened to once the flow-insensitive stage finishes
    /// (§4.1).
    pub fn any() -> TypeInterval {
        TypeInterval {
            upper: Type::Top,
            lower: Type::Bottom,
        }
    }

    /// Whether no hint has been absorbed yet.
    pub fn is_unknown(&self) -> bool {
        self.upper == Type::Bottom && self.lower == Type::Top
    }

    /// Whether this is the widened any-type interval.
    pub fn is_any(&self) -> bool {
        self.upper == Type::Top && self.lower == Type::Bottom
    }

    /// Absorbs one type hint: `F↑ ∨= t`, `F↓ ∧= t`.
    pub fn absorb(&mut self, t: &Type) {
        self.upper = self.upper.join(t);
        self.lower = self.lower.meet(t);
    }

    /// Merges another interval into this one (used when unifying
    /// equivalence classes).
    pub fn merge(&mut self, other: &TypeInterval) {
        // Merging with the pristine unknown sentinel must be the identity,
        // not a widen-to-top.
        if other.is_unknown() {
            return;
        }
        if self.is_unknown() {
            *self = other.clone();
            return;
        }
        self.upper = self.upper.join(&other.upper);
        self.lower = self.lower.meet(&other.lower);
    }

    /// Replaces the interval with the bounds of a refined hint set
    /// (Algorithm 1 lines 9–10 / Algorithm 2 lines 10–11): `F↑ = LUB`,
    /// `F↓ = GLB` over `types`. No-op when `types` is empty.
    pub fn replace_with_hints<'a>(&mut self, types: impl IntoIterator<Item = &'a Type>) {
        let mut fresh = TypeInterval::unknown();
        for t in types {
            fresh.absorb(t);
        }
        if !fresh.is_unknown() {
            *self = fresh;
        }
    }

    /// Classifies the interval. Singleton-ness is decided at the first
    /// layer, matching the granularity the paper's evaluation measures
    /// (§6.1 evaluates "first-layer types of function parameters"):
    /// `ptr(int8)` vs `ptr(⊥)` is still *precise* — a pointer — while
    /// `int64` vs `reg64` is over-approximated.
    pub fn resolution(&self) -> Resolution {
        if self.is_unknown() {
            return Resolution::Unknown;
        }
        match self.representative() {
            Some(t) => Resolution::Precise(t.clone()),
            None => Resolution::Over,
        }
    }

    /// The class [`TypeInterval::resolution`] names, decided without
    /// cloning the representative type.
    pub fn class(&self) -> VarClass {
        if self.is_unknown() {
            VarClass::Unknown
        } else if self.representative().is_some() {
            VarClass::Precise
        } else {
            VarClass::Over
        }
    }

    /// The representative type of a precise interval, borrowed: what
    /// [`TypeInterval::resolution`] returns a clone of. `None` for an
    /// over-approximated or unknown interval.
    pub(crate) fn representative(&self) -> Option<&Type> {
        if self.upper == self.lower {
            return Some(&self.upper);
        }
        let (fu, fl) = (FirstLayer::of(&self.upper), FirstLayer::of(&self.lower));
        if fu == fl && fu.is_concrete() {
            return Some(&self.lower);
        }
        // An interval wholly inside one width's numeric class — e.g.
        // `[int64, num64]` after mixing a concrete hint with an abstract
        // arithmetic hint — resolves to the concrete lower bound: every
        // other concrete member of the class fails `lower <: t`.
        if let FirstLayer::Num(w) = fu {
            if fl.is_concrete() && self.lower.is_numeric() && self.lower.width() == Some(w) {
                return Some(&self.lower);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_then_single_hint_is_precise() {
        let mut i = TypeInterval::unknown();
        assert_eq!(i.resolution(), Resolution::Unknown);
        i.absorb(&Type::Int(Width::W64));
        assert_eq!(i.resolution(), Resolution::Precise(Type::Int(Width::W64)));
    }

    #[test]
    fn conflicting_hints_over_approximate() {
        let mut i = TypeInterval::unknown();
        i.absorb(&Type::Int(Width::W64));
        i.absorb(&Type::byte_ptr());
        assert_eq!(i.upper, Type::Reg(Width::W64));
        assert_eq!(i.lower, Type::Bottom);
        assert_eq!(i.resolution(), Resolution::Over);
    }

    #[test]
    fn pointer_depth_disagreement_is_still_precise() {
        let mut i = TypeInterval::unknown();
        i.absorb(&Type::byte_ptr());
        i.absorb(&Type::ptr(Type::Bottom));
        assert_eq!(FirstLayer::of(&i.upper), FirstLayer::Ptr);
        assert!(i.resolution().is_precise());
        // The representative is the lower (more specific) bound.
        assert_eq!(i.resolution(), Resolution::Precise(Type::ptr(Type::Bottom)));
    }

    #[test]
    fn class_names_the_resolution() {
        let types = [
            Type::Top,
            Type::Bottom,
            Type::Int(Width::W64),
            Type::Int(Width::W32),
            Type::Num(Width::W64),
            Type::Reg(Width::W64),
            Type::Float,
            Type::byte_ptr(),
            Type::ptr(Type::Bottom),
        ];
        for upper in &types {
            for lower in &types {
                let i = TypeInterval {
                    upper: upper.clone(),
                    lower: lower.clone(),
                };
                let want = match i.resolution() {
                    Resolution::Unknown => VarClass::Unknown,
                    Resolution::Precise(_) => VarClass::Precise,
                    Resolution::Over => VarClass::Over,
                };
                assert_eq!(i.class(), want, "{i:?}");
            }
        }
    }

    #[test]
    fn any_interval_is_over() {
        assert_eq!(TypeInterval::any().resolution(), Resolution::Over);
        assert!(TypeInterval::any().is_any());
    }

    #[test]
    fn merge_identity_with_unknown() {
        let mut a = TypeInterval::exact(Type::Float);
        a.merge(&TypeInterval::unknown());
        assert_eq!(a, TypeInterval::exact(Type::Float));
        let mut b = TypeInterval::unknown();
        b.merge(&TypeInterval::exact(Type::Float));
        assert_eq!(b, TypeInterval::exact(Type::Float));
    }

    #[test]
    fn replace_with_hints_narrows() {
        let mut i = TypeInterval::unknown();
        i.absorb(&Type::Int(Width::W64));
        i.absorb(&Type::byte_ptr());
        assert_eq!(i.resolution(), Resolution::Over);
        i.replace_with_hints([Type::Int(Width::W64)].iter());
        assert_eq!(i.resolution(), Resolution::Precise(Type::Int(Width::W64)));
        // Empty hint set leaves the interval untouched.
        let before = i.clone();
        i.replace_with_hints(std::iter::empty());
        assert_eq!(i, before);
    }

    #[test]
    fn first_layer_concreteness() {
        assert!(FirstLayer::of(&Type::byte_ptr()).is_concrete());
        assert!(FirstLayer::of(&Type::Int(Width::W8)).is_concrete());
        assert!(!FirstLayer::of(&Type::Num(Width::W32)).is_concrete());
        assert!(!FirstLayer::of(&Type::Reg(Width::W64)).is_concrete());
        assert!(!FirstLayer::of(&Type::Top).is_concrete());
    }

    #[test]
    fn numeric_class_interval_resolves_to_lower() {
        let mut i = TypeInterval::unknown();
        i.absorb(&Type::Int(Width::W64));
        i.absorb(&Type::Num(Width::W64));
        assert_eq!(i.resolution(), Resolution::Precise(Type::Int(Width::W64)));
        // Width mismatch stays over-approximated.
        let mut j = TypeInterval::unknown();
        j.absorb(&Type::Int(Width::W32));
        j.absorb(&Type::Num(Width::W64));
        assert_eq!(j.resolution(), Resolution::Over);
    }

    #[test]
    fn num_singleton_is_precise_but_abstract() {
        // F↑ = F↓ = num64: precise per the paper (no refinement can do
        // better), though the payload is abstract.
        let i = TypeInterval::exact(Type::Num(Width::W64));
        assert_eq!(i.resolution(), Resolution::Precise(Type::Num(Width::W64)));
    }
}
