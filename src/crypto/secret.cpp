#include "crypto/secret.hpp"

#include <utility>

#include "crypto/sha256.hpp"

namespace xchain::crypto {

Secret Secret::from_label(std::string_view label) {
  Sha256 h;
  h.update("xchain-secret/");
  h.update(label);
  const Digest d = h.finish();
  return Secret(Bytes(d.begin(), d.end()));
}

Secret::Secret(Bytes value)
    : value_(std::move(value)), hashlock_(sha256(value_)) {}

bool opens(const Digest& hashlock, const Bytes& preimage) {
  return sha256(preimage) == hashlock;
}

}  // namespace xchain::crypto
