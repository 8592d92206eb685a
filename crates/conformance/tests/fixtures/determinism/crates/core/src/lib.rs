//! Synthetic crate exercising the determinism rule. Never compiled.

use std::collections::HashMap;

// conformance:allow(determinism): scratch set local to one call, never iterated
use std::collections::HashSet;

pub fn route() {
    unimplemented!()
}

pub fn verbose() -> bool {
    std::env::var_os("DEBUG").is_some()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_is_exempt() {
        let _ = HashMap::<u8, u8>::new();
    }
}
