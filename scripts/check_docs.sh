#!/usr/bin/env bash
# Documentation lint, run by the CI "docs" job (and locally via
# `scripts/check_docs.sh`). Four invariants:
#
#  1. Every header under src/ opens with a `/// \file` doc comment (the
#     house style of conflux25d.hpp/spmd.hpp).
#  2. Every intra-repo Markdown link resolves to an existing file.
#     External links (http/https/mailto) and pure #anchors are ignored;
#     `path#anchor` links are checked for the path part only.
#  3. No stale CLI flags: every `--flag` a Markdown line mentions after one
#     of the repo's binaries (commcheck, confscope, bench_*) must appear
#     literally in the source of the nearest such binary before it, so docs
#     cannot outlive a renamed or removed option.
#  4. No malformed Doxygen member markers: a bare `/<` (a typo for the
#     `///<` trailing-comment marker) renders as literal noise in the docs
#     and silently drops the comment from the generated output.
#  5. No stale CTest labels: every `ctest ... -L <label>` (or -LE) a
#     Markdown file mentions must be a label CMakeLists.txt actually
#     assigns, so docs cannot advertise a renamed or removed test wall.
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0

# --- 1: header doc comments -------------------------------------------------
while IFS= read -r hpp; do
  if ! head -n1 "$hpp" | grep -q '^/// \\file'; then
    echo "error: $hpp does not start with a '/// \\file' doc comment" >&2
    fail=1
  fi
done < <(find src -name '*.hpp' | sort)

# --- 2: intra-repo markdown links -------------------------------------------
while IFS= read -r md; do
  dir=$(dirname "$md")
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "error: $md links to missing file '$target'" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done < <(find . -name build -prune -o -name '*.md' -print | sort)

# --- 3: stale CLI flag references --------------------------------------------
# Map a documented binary name to the source file defining its flags.
flag_source_for() {
  case "$1" in
    commcheck) echo "tools/commcheck.cpp" ;;
    confscope) echo "tools/confscope.cpp" ;;
    bench_*) echo "bench/$1.cpp" ;;
  esac
}

while IFS= read -r md; do
  while IFS= read -r line; do
    # Walk the line's binary names and flags in order: each flag belongs to
    # the nearest binary named before it (flags before any name are skipped).
    bin=""
    for tok in $(grep -oE '\b(commcheck|confscope|bench_[a-z0-9_]+)\b|--[a-z][a-z0-9_-]*' <<<"$line"); do
      case "$tok" in
        --*) ;;
        *) bin=$tok; continue ;;
      esac
      [ -n "$bin" ] || continue
      src=$(flag_source_for "$bin")
      [ -f "$src" ] || continue  # not a binary (e.g. bench_common.hpp): skip
      if ! grep -qF -- "$tok" "$src"; then
        echo "error: $md mentions flag '$tok' of $bin, not found in $src" >&2
        fail=1
      fi
    done
  done < <(grep -E '\b(commcheck|confscope|bench_[a-z0-9_]+)\b.*--[a-z]' "$md" || true)
done < <(find . -mindepth 1 \( -name build -o -name '.*' \) -prune -o \
         -name '*.md' ! -name CHANGES.md -print | sort)
# CHANGES.md is exempt: it is history, and its entries name flags that have
# since been removed.

# --- 4: malformed Doxygen trailing-comment markers ---------------------------
# Strip every well-formed `///<` occurrence, then flag any surviving `/<`:
# that is the `/<`-for-`///<` typo (or a stray `//<`), which Doxygen treats
# as plain code and drops from the docs.
while IFS= read -r f; do
  hits=$(sed 's_///<__g' "$f" | grep -n '/<' || true)
  if [ -n "$hits" ]; then
    echo "error: $f contains a malformed Doxygen marker ('/<' where '///<' is meant):" >&2
    echo "$hits" | sed 's/^/  /' >&2
    fail=1
  fi
done < <(find src tests bench tools examples \
         \( -name '*.hpp' -o -name '*.cpp' \) -print | sort)

# --- 5: stale CTest label references -----------------------------------------
# Labels CMakeLists.txt assigns, via `LABELS <name>` in set_tests_properties.
known_labels=$(grep -oE 'LABELS [a-z]+' CMakeLists.txt | awk '{print $2}' | sort -u)
while IFS= read -r md; do
  while IFS= read -r label; do
    if ! grep -qxF -- "$label" <<<"$known_labels"; then
      echo "error: $md mentions ctest label '$label', not assigned in CMakeLists.txt" >&2
      fail=1
    fi
  done < <(grep -oE 'ctest[^`)]* -LE? [a-z]+' "$md" |
           grep -oE '\-LE? [a-z]+$' | awk '{print $2}' | sort -u)
done < <(find . -name build -prune -o -name '*.md' -print | sort)

if [ "$fail" -eq 0 ]; then
  echo "docs lint OK: src headers carry \\file comments, intra-repo links resolve, documented CLI flags exist, no malformed '/<' Doxygen markers, documented ctest labels exist"
fi
exit "$fail"
