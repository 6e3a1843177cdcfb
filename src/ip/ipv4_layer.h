// IP-layer receive validation and a destination routing table.
//
// The receive host owns several NICs (the paper's server has five); the routing table
// picks the egress NIC for ACKs and responses by destination address.

#ifndef SRC_IP_IPV4_LAYER_H_
#define SRC_IP_IPV4_LAYER_H_

#include <cstdint>

#include "src/buffer/skbuff.h"
#include "src/util/flat_map.h"
#include "src/wire/ipv4.h"

namespace tcprx {

enum class IpVerdict {
  kAccept,
  kBadChecksum,
  kTruncated,
  kNotLocal,
};

class Ipv4Layer {
 public:
  // Registers an address as local (one per NIC, typically).
  void AddLocalAddress(Ipv4Address addr) { local_.InsertOrAssign(addr.value, true); }

  // Receive-side validation of a host packet (aggregated packets carry a rewritten,
  // re-checksummed IP header, so they pass the same checks).
  IpVerdict Validate(const SkBuff& skb) const;

 private:
  FlatMap<uint32_t, bool> local_;
};

// Destination-address → NIC index map.
class RoutingTable {
 public:
  void AddRoute(Ipv4Address dst, int nic_id) { routes_.InsertOrAssign(dst.value, nic_id); }
  // Returns the NIC for `dst`, or -1 when unroutable.
  int Lookup(Ipv4Address dst) const {
    const int* nic_id = routes_.Find(dst.value);
    return nic_id == nullptr ? -1 : *nic_id;
  }

 private:
  FlatMap<uint32_t, int> routes_;
};

}  // namespace tcprx

#endif  // SRC_IP_IPV4_LAYER_H_
