#pragma once
// Umbrella header for the snapshot subsystem: LDSNAP binary artifact
// serialization (format.hpp, artifacts.hpp), input fingerprints
// (fingerprint.hpp), the content-addressed stage cache (cache.hpp) and the
// cached pipeline stage definitions (stages.hpp).

#include "leodivide/snapshot/artifacts.hpp"
#include "leodivide/snapshot/cache.hpp"
#include "leodivide/snapshot/fingerprint.hpp"
#include "leodivide/snapshot/format.hpp"
#include "leodivide/snapshot/stages.hpp"
