#!/usr/bin/env bash
# Reachability gate: fails when a file under crates/*/src declares pub
# items (column-0 `pub fn|struct|enum|trait|const|type|static`) none of
# which is named, as a whole word, anywhere under crates/*/src,
# benchmark/src or examples outside the file itself, its own crate's
# lib.rs/mod.rs and test code (a file's tail from its first #[cfg(test)]).
# Such a file is an island: nothing that runs reaches it. Connect it to a
# caller or delete it; the allow-list is empty and stays empty.
#
# Item pass: a `pub fn` (any indentation) under crates/*/src needs a
# production caller. Production is the non-test code of crates/*/src,
# benchmark/src and examples; a file's tail from its first #[cfg(test)],
# crates/*/tests and tests/ are test code. A `pub fn` passes if
#   - a production call reaches it from another file, or
#   - a production call reaches it from its own file (`self.` and `Self::`
#     count there), and another file, test code included, calls it: that
#     caller is why it is `pub`.
# A call is a call-shaped occurrence — `name(`, `name::<` or `::name` —
# outside `//` comments, attributes (`#[allow(...)]` calls no `fn allow`)
# and `use` items. A bare `.name` is a field read, not a call: counting
# it let a field hide an uncalled method of the same name. A call from
# another file goes not through `self.` or `Self::`, and that file
# defines no `fn name`; when more than one file defines a `fn name`, any
# production call outside `self.` and `Self::`, in any file, passes it
# (the call may be the other's). A local variable or a `pub use` is no
# caller. A test-only fn gets a production
# caller, moves into its file's #[cfg(test)] tail or a tests/ support
# module, or goes; a fn only its own file calls drops the `pub`. Same
# empty allow-list.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates/*/src benchmark/src examples -name '*.rs')
status=0
for f in $(find crates/*/src -name '*.rs' ! -name lib.rs ! -name mod.rs | sort); do
    names=$(sed -nE 's/^pub (const fn|fn|struct|enum|trait|const|type|static) ([A-Za-z0-9_]+).*/\2/p' "$f" | paste -sd'|' -)
    [[ -z "$names" ]] && continue
    others=$(grep -vxE "$f|${f%%/src/*}/src/(.*/)?(lib|mod)\.rs" <<<"$files")
    awk -v pat="(^|[^A-Za-z0-9_])($names)([^A-Za-z0-9_]|\$)" '
        FNR == 1 { test = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { test = 1 }
        !test && $0 ~ pat { hit = 1; exit }
        END { exit !hit }' $others || { echo "island: $f ($names)"; status=1; }
done

lonely=$(awk '
    FNR == 1 { test = (FILENAME ~ /^(crates\/[^\/]+\/)?tests\//) }
    /^[ \t]*#\[cfg\(test\)\]/ { test = 1 }
    /^[ \t]*\/\// { next }
    /^[ \t]*#!?\[/ { next }
    inuse { if (/;/) inuse = 0; next }
    /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/ { if (!/;/) inuse = 1; next }
    FILENAME ~ /^crates\/[^\/]+\/src\// && match($0, /^[ \t]*pub (const )?fn [A-Za-z0-9_]+/) {
        n = split(substr($0, RSTART, RLENGTH), w, " "); pub[w[n]] = 1
    }
    {
        line = $0; sub(/[ \t]\/\/.*$/, "", line); pre = ""
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            pre = pre substr(line, 1, RSTART - 1); name = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (pre ~ /(^|[^A-Za-z0-9_])fn[ \t]+$/) {
                if (!((name, FILENAME) in def)) { def[name, FILENAME] = 1; defs[name]++ }
            } else if (line ~ /^(\(|::<)/ || pre ~ /::$/) {
                if (!test) live[name, FILENAME] = 1
                if (pre !~ /(^|[^A-Za-z0-9_])(self\.|Self::)$/) {
                    call[name, FILENAME] = 1
                    if (!test) outer[name, FILENAME] = 1
                }
            }
            pre = pre name
        }
    }
    END {
        # outer: production calls not through self; live: any production
        # call; call: any call not through self, test code included.
        for (k in outer) { split(k, p, SUBSEP); if (!(k in def) || defs[p[1]] > 1) called[p[1]] = 1 }
        for (k in call) { split(k, p, SUBSEP); if (!(k in def)) elsewhere[p[1]] = 1 }
        for (k in live) { split(k, p, SUBSEP); if ((k in def) && (p[1] in elsewhere)) called[p[1]] = 1 }
        for (name in pub) if (!(name in called)) print name
    }' $(find crates benchmark/src examples tests -name '*.rs' | sort) | sort)
for name in $lonely; do
    echo "pub fn with no production caller: $name ($(grep -rlw "fn $name" crates/*/src | paste -sd' ' -))"
    status=1
done
exit $status
