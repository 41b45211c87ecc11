#!/usr/bin/env bash
# Dead public API lint: every first-party `pub fn` needs a caller
# outside test code, or an entry in ci/pub_callers_allow.txt that says
# why it stays.
#
# Checked: the `pub fn`s under crates/*/src and src/, above each file's
# first `#[cfg(test)]` (test modules sit at the end of their files).
#
# Counted as callers: the non-test part of every file under
# crates/*/src, crates/*/benches, src/, examples/ and wrm-benchmark/src
# (read only: the repo benchmark calls the public API too). A caller is
# the function's name as a whole word. Comment lines, trailing `//`
# comments, `pub use` re-exports (multi-line ones too), `mod`
# declarations, one-line string literals and `fn name` definitions do
# not count, so a function that only a re-export or a doc comment
# mentions is flagged. The match is by name: a function that shares its
# name with a called one, or with a word in a string that spans lines,
# passes, so the lint finds dead API but cannot prove an API live.
#
# An allowlist entry whose function is gone or has gained a caller
# fails too, so the list only ever holds what it must.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=ci/pub_callers_allow.txt
ident='[A-Za-z_][A-Za-z0-9_]*'

# The lines of a file that count: above its first #[cfg(test)], minus
# comments, `pub use` re-exports, `mod` declarations and the contents
# of one-line string literals.
non_test() {
  sed -n '/^[[:space:]]*#\[cfg(test)\]/q; p' "$1" | sed \
    -e '/^[[:space:]]*\/\//d' \
    -e 's/[[:space:]]\/\/.*$//' \
    -e '/^[[:space:]]*pub\(([^)]*)\)\{0,1\}[[:space:]]\{1,\}use[[:space:]].*;/d' \
    -e '/^[[:space:]]*pub\(([^)]*)\)\{0,1\}[[:space:]]\{1,\}use[[:space:]]/,/;/d' \
    -e '/^[[:space:]]*\(pub\(([^)]*)\)\{0,1\}[[:space:]]\{1,\}\)\{0,1\}mod[[:space:]][^{]*;/d' \
    -e 's/"\([^"\\]\|\\.\)*"/""/g'
}

# Every identifier used outside a `fn` definition's name.
declare -A called
while read -r name; do
  called[$name]=1
done < <(
  find crates/*/src crates/*/benches src examples wrm-benchmark/src -name '*.rs' |
    sort | while read -r f; do non_test "$f"; done |
    sed -E "s/\\bfn[[:space:]]+$ident//g" | grep -oE "$ident" | sort -u
)

# A renamed re-export (`pub use m::{name as alias}`) passes a call of
# the alias on to the name.
while read -r name _ alias; do
  if [ -n "${called[$alias]:-}" ]; then
    called[$name]=1
  fi
done < <(
  find crates/*/src src -name '*.rs' | sort | while read -r f; do
    sed -n -e '/^[[:space:]]*#\[cfg(test)\]/q' \
      -e '/^[[:space:]]*pub\(([^)]*)\)\{0,1\}[[:space:]]\{1,\}use[[:space:]].*;/{p;d;}' \
      -e '/^[[:space:]]*pub\(([^)]*)\)\{0,1\}[[:space:]]\{1,\}use[[:space:]]/,/;/p' "$f"
  done | { grep -oE "$ident as $ident" || true; }
)

declare -A allowed
while read -r file name _; do
  allowed["$file $name"]=1
done < <(grep -vE '^[[:space:]]*(#|$)' "$allow" || true)

unlisted=()
declare -A seen
while read -r f; do
  while read -r name; do
    [ -n "$name" ] || continue
    seen["$f $name"]=1
    if [ -z "${called[$name]:-}" ] && [ -z "${allowed["$f $name"]:-}" ]; then
      unlisted+=("$f $name")
    fi
  done < <(non_test "$f" |
    { grep -oE "^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*fn[[:space:]]+$ident" || true; } |
    sed -E 's/.*[[:space:]]//')
done < <(find crates/*/src src -name '*.rs' | sort)

stale=()
for entry in "${!allowed[@]}"; do
  name=${entry#* }
  if [ -z "${seen[$entry]:-}" ] || [ -n "${called[$name]:-}" ]; then
    stale+=("$entry")
  fi
done

if [ "${#unlisted[@]}" -gt 0 ]; then
  echo "pub-callers lint: public function(s) with no non-test caller:" >&2
  printf '  %s\n' "${unlisted[@]}" >&2
  echo "Delete each one, or add '<file> <name> <why it stays>' to $allow." >&2
fi
if [ "${#stale[@]}" -gt 0 ]; then
  echo "pub-callers lint: allowlist entries that are gone or now have a caller:" >&2
  printf '  %s\n' "${stale[@]}" | sort >&2
  echo "Remove them from $allow." >&2
fi
if [ "${#unlisted[@]}" -gt 0 ] || [ "${#stale[@]}" -gt 0 ]; then
  exit 1
fi

echo "pub-callers lint: OK (${#seen[@]} pub fns, ${#allowed[@]} allowlisted)"
