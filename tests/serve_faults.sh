#!/bin/sh
# Fault drills for the socket daemon (ctest label `service`).
#
# Usage: serve_faults.sh PARBOUNDS_SERVE CASE, run from a scratch dir.
#
#   sigterm            SIGTERM the daemon: it must exit 0 and leave no
#                      socket file behind;
#   half-frame         a client writes half a frame and closes;
#   oversized-frame    a client sends a length header over the 1 MiB
#                      frame limit (kMaxFramePayload);
#   concurrent-client  client A asks for a ~0.75 s run, and client B
#                      connects and pings while that run is in flight.
#                      B must get "ok", and A its complete "ok" response.
#
# In the two frame cases the daemon must drop only that session. In
# every case but sigterm the next client's ping then gets "ok", and a
# shutdown still ends the daemon cleanly. The raw clients are perl
# (IO::Socket::UNIX), because the daemon's own --connect only ever
# writes whole frames.
set -eu
serve="$1"
drill="$2"
dir="serve_faults_${drill}"
rm -rf "${dir}"
mkdir -p "${dir}"
sock="${dir}/d.sock"

"${serve}" --socket "${sock}" --cache-dir "${dir}/cache" \
  >/dev/null 2>"${dir}/err" &
daemon=$!
trap 'kill "${daemon}" 2>/dev/null || true' EXIT
i=0
while [ ! -S "${sock}" ] && [ "${i}" -lt 100 ]; do
  sleep 0.05
  i=$((i + 1))
done

ping_ok() {
  printf '%s\n' '{"id":1,"op":"ping"}' |
    "${serve}" --connect "${sock}" | grep -q '"status":"ok"'
}

# raw_frame LEN BYTES: a u32le length header LEN, then BYTES, then close.
raw_frame() {
  perl -MIO::Socket::UNIX -e '
    my $s = IO::Socket::UNIX->new(Peer => $ARGV[0]) or die "connect: $!\n";
    print $s pack("V", $ARGV[1]) . $ARGV[2];
    close $s;' "${sock}" "$1" "$2"
}

ping_ok  # the daemon is up and back in its accept loop
case "${drill}" in
  sigterm)
    kill -TERM "${daemon}"
    wait "${daemon}"  # killed by the signal = non-zero status = failure
    test ! -e "${sock}"
    exit 0
    ;;
  half-frame) raw_frame 64 '{"id":2,"op":' ;;
  oversized-frame) raw_frame $((2 * 1048576)) 'x' ;;
  concurrent-client)
    run='{"id":2,"op":"run","engine":"sqsm","workload":"parity_tree",'
    run="${run}"'"params":{"n":524288,"g":4,"fanin":2},"seed":1}'
    printf '%s\n' "${run}" | "${serve}" --connect "${sock}" >"${dir}/a.out" &
    client_a=$!
    sleep 0.2  # A's run is now in flight
    ping_ok    # B
    wait "${client_a}"  # non-zero if A's connection closed mid-request
    test "$(wc -l <"${dir}/a.out")" -eq 1
    grep -q '"status":"ok"' "${dir}/a.out"
    grep -q '"cost":' "${dir}/a.out"
    ;;
  *)
    echo "serve_faults.sh: unknown drill '${drill}'" >&2
    exit 2
    ;;
esac
ping_ok
printf '%s\n' '{"id":3,"op":"shutdown"}' |
  "${serve}" --connect "${sock}" >/dev/null
wait "${daemon}"
test ! -e "${sock}"
