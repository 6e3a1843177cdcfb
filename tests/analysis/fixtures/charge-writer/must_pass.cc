// Fixture (analyzed as src/tcp/fixture.cc): the frame writer billed in the same
// function, and behind an annotated caller-pays escape. No findings.
#include <cstdint>
#include <vector>

namespace tcprx {

inline std::vector<uint8_t> ChargedAck(Charger& charger, const TcpFrameTemplate& tmpl,
                                       uint32_t ack) {
  charger.Charge(Routine::kE1000XmitFrame, 1);
  return WriteTcpFrame(tmpl, 1, {0, ack, kTcpAck, 65535}, {}, {}, false);
}

inline std::vector<uint8_t> CallerPaysAck(const TcpFrameTemplate& tmpl, uint32_t ack) {
  // tcprx-check: allow(charge) -- fixture: the caller bills the whole tx pass
  return WriteTcpFrame(tmpl, 1, {0, ack, kTcpAck, 65535}, {}, {}, false);
}

}  // namespace tcprx
