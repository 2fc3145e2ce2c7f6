/// \file
/// One-time registration of the baseline samplers with the global
/// core::SamplerRegistry. Core pre-registers "stem"; this adds
/// random/pka/sieve/photon (idempotent, thread-safe). Front ends
/// call it once before resolving --method names.

#pragma once

namespace stemroot::baselines {

/// Ensure random/pka/sieve/photon are registered (plus core's
/// built-in stem). Safe to call repeatedly and from multiple threads.
void EnsureBuiltinSamplers();

}  // namespace stemroot::baselines
