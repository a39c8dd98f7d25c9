#!/bin/sh
# Fault drills for the socket daemon (ctest label `service`).
#
# Usage: serve_faults.sh PARBOUNDS_SERVE CASE, run from a scratch dir.
#
#   sigterm          SIGTERM the daemon: it must exit 0 and leave no
#                    socket file behind;
#   half-frame       a client writes half a frame and closes;
#   oversized-frame  a client sends a length header over the 1 MiB
#                    frame limit (kMaxFramePayload).
#
# In the two frame cases the daemon must drop only that session: the
# next client's ping gets "ok", and a shutdown still ends the daemon
# cleanly. The raw clients are perl (IO::Socket::UNIX), because the
# daemon's own --connect only ever writes whole frames.
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
