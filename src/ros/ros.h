// Umbrella header for the mini-ROS middleware: include this plus your
// generated message headers and write roscpp-style code (paper Fig. 3).
#pragma once

#include "common/log.h"             // IWYU pragma: export
#include "ros/callback_queue.h"     // IWYU pragma: export
#include "ros/connection_header.h"  // IWYU pragma: export
#include "ros/intra_process.h"      // IWYU pragma: export
#include "ros/master.h"             // IWYU pragma: export
#include "ros/message_traits.h"     // IWYU pragma: export
#include "ros/node_handle.h"        // IWYU pragma: export
#include "ros/publication.h"        // IWYU pragma: export
#include "ros/serialized_message.h" // IWYU pragma: export
#include "ros/subscription.h"       // IWYU pragma: export
