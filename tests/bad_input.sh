#!/bin/sh
# Bad outside input must fail with a fixed exit code, never crash or run on:
#
#   bad_input.sh BINARY QUERY_FLAG CASE
#
# BINARY is gpumem_cli (QUERY_FLAG --query) or gpumem_serve (--queries).
#   missing-ref      a reference file that does not exist    -> exit 1
#   empty-ref        a reference whose first record is empty -> exit 2
#   empty-queries    a query file made only of empty records -> exit 2
#   metrics-format   --metrics-format xml                    -> exit 2
bin=$1 qflag=$2 case=$3
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
printf '>r\nACGTTGCAACGGTACCATGCAGTTACGATCGGATCCATGACGTAGCTAGGCTA\n' \
  > "$work/ref.fa"
printf '>q\nACGTTGCAACGGTACCATGCAGTTACGATCG\n' > "$work/q.fa"
printf '>empty\n' > "$work/empty.fa"
printf '>e1\n>e2\n\n>e3\n' > "$work/empty-queries.fa"

case $case in
  missing-ref) want=1
    "$bin" --ref "$work/missing.fa" "$qflag" "$work/q.fa" ;;
  empty-ref) want=2
    "$bin" --ref "$work/empty.fa" "$qflag" "$work/q.fa" ;;
  empty-queries) want=2
    "$bin" --ref "$work/ref.fa" "$qflag" "$work/empty-queries.fa" ;;
  metrics-format) want=2
    "$bin" --ref "$work/ref.fa" "$qflag" "$work/q.fa" \
      --metrics-format xml ;;
  *) echo "unknown case '$case'" >&2; exit 64 ;;
esac
got=$?
if [ "$got" -ne "$want" ]; then
  echo "$case: exit $got, want $want" >&2
  exit 1
fi
echo "$case: exit $got as expected"
